#include "obs/flight_recorder.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace csim {

namespace {

/** One thread's ring. Claimed by CAS on `used`; only the owning
 *  thread writes entries/context/head, so recording needs no lock.
 *  `head` counts total notes; entry i lives at slot i % ringEntries. */
struct Ring
{
    std::atomic<bool> used{false};
    std::atomic<std::uint64_t> head{0};
    char context[FlightRecorder::entryBytes] = {};
    char entries[FlightRecorder::ringEntries]
                [FlightRecorder::entryBytes] = {};
};

Ring g_rings[FlightRecorder::maxThreads];

std::atomic<bool> g_installed{false};
std::atomic<bool> g_dumped{false};
char g_replay[1024] = {};
char g_dumpPath[512] = {};

/** Claim a free ring slot for this thread; null when all are taken. */
Ring *
claimRing()
{
    for (Ring &ring : g_rings) {
        bool expected = false;
        if (ring.used.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
            ring.head.store(0, std::memory_order_relaxed);
            ring.context[0] = '\0';
            return &ring;
        }
    }
    return nullptr;
}

/** Releases this thread's ring on exit so slots recycle across the
 *  short-lived sweep worker pools. */
struct RingHolder
{
    Ring *ring = nullptr;
    bool exhausted = false;

    ~RingHolder()
    {
        if (!ring)
            return;
        // Clear before releasing so a recycled slot never attributes
        // a dead thread's events to its successor.
        ring->head.store(0, std::memory_order_relaxed);
        ring->context[0] = '\0';
        std::memset(ring->entries, 0, sizeof(ring->entries));
        ring->used.store(false, std::memory_order_release);
    }
};

thread_local RingHolder t_ring;

Ring *
myRing()
{
    if (t_ring.ring == nullptr && !t_ring.exhausted) {
        t_ring.ring = claimRing();
        t_ring.exhausted = t_ring.ring == nullptr;
    }
    return t_ring.ring;
}

void
copyTruncated(char *dst, std::size_t cap, const char *src)
{
    std::size_t i = 0;
    for (; src[i] != '\0' && i + 1 < cap; ++i)
        dst[i] = src[i];
    dst[i] = '\0';
}

/**
 * Line-by-line dump renderer shared by the crash path (emit = write())
 * and dumpToString (emit = string append). Every line but the replay
 * command (which can outgrow the buffer, so it is emitted as stored)
 * is built into a stack buffer with snprintf — async-signal-safe on
 * every libc this project targets, and the crash path allocates
 * nothing.
 */
template <typename Emit>
void
renderDump(const char *reason, Emit &&emit)
{
    char line[FlightRecorder::entryBytes + 64];
    std::snprintf(line, sizeof(line),
                  "=== flight recorder dump (reason: %s) ===\n",
                  reason ? reason : "?");
    emit(line);
    if (g_replay[0] != '\0') {
        emit("replay: ");
        emit(g_replay);
        emit("\n");
    }
    for (std::size_t t = 0; t < FlightRecorder::maxThreads; ++t) {
        Ring &ring = g_rings[t];
        if (!ring.used.load(std::memory_order_acquire))
            continue;
        const std::uint64_t head =
            ring.head.load(std::memory_order_relaxed);
        if (head == 0 && ring.context[0] == '\0')
            continue;
        std::snprintf(line, sizeof(line),
                      "thread %zu: %llu events recorded, context: %s\n",
                      t, static_cast<unsigned long long>(head),
                      ring.context[0] ? ring.context : "(none)");
        emit(line);
        const std::uint64_t kept =
            head < FlightRecorder::ringEntries
                ? head : FlightRecorder::ringEntries;
        for (std::uint64_t i = head - kept; i < head; ++i) {
            const char *entry =
                ring.entries[i % FlightRecorder::ringEntries];
            std::snprintf(line, sizeof(line), "  [%lld] %s\n",
                          static_cast<long long>(i) -
                              static_cast<long long>(head),
                          entry);
            emit(line);
        }
    }
    std::snprintf(line, sizeof(line),
                  "=== end flight recorder dump ===\n");
    emit(line);
}

void
crashHook(const char *reason)
{
    FlightRecorder::dump(reason);
}

void
signalHandler(int signo)
{
    // strsignal is not signal-safe; a fixed name table is.
    const char *name = "fatal signal";
    switch (signo) {
      case SIGSEGV: name = "SIGSEGV"; break;
      case SIGBUS: name = "SIGBUS"; break;
      case SIGFPE: name = "SIGFPE"; break;
      case SIGILL: name = "SIGILL"; break;
      case SIGABRT: name = "SIGABRT"; break;
    }
    FlightRecorder::dump(name);
    // SA_RESETHAND restored the default action; re-raise so the
    // process still dies with the original signal (and core dump).
    ::raise(signo);
}

void
installSignalHandlers()
{
    struct ::sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = signalHandler;
    sa.sa_flags = SA_RESETHAND | SA_NODEFER;
    ::sigemptyset(&sa.sa_mask);
    for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        ::sigaction(signo, &sa, nullptr);
}

void
restoreSignalHandlers()
{
    struct ::sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_DFL;
    ::sigemptyset(&sa.sa_mask);
    for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        ::sigaction(signo, &sa, nullptr);
}

} // anonymous namespace

void
FlightRecorder::install(const std::string &replay_command,
                        const std::string &dump_path)
{
    copyTruncated(g_replay, sizeof(g_replay), replay_command.c_str());
    copyTruncated(g_dumpPath, sizeof(g_dumpPath), dump_path.c_str());
    g_dumped.store(false, std::memory_order_relaxed);
    if (!g_installed.exchange(true, std::memory_order_acq_rel)) {
        setCrashHook(&crashHook);
        installSignalHandlers();
    }
}

bool
FlightRecorder::installed()
{
    return g_installed.load(std::memory_order_relaxed);
}

void
FlightRecorder::reset()
{
    if (g_installed.exchange(false, std::memory_order_acq_rel)) {
        setCrashHook(nullptr);
        restoreSignalHandlers();
    }
    g_replay[0] = '\0';
    g_dumpPath[0] = '\0';
    g_dumped.store(false, std::memory_order_relaxed);
    // Rings owned by live threads keep their slots (the owners still
    // hold pointers); only their recorded content is discarded.
    for (Ring &ring : g_rings) {
        ring.head.store(0, std::memory_order_relaxed);
        ring.context[0] = '\0';
    }
}

void
FlightRecorder::note(const char *text)
{
    if (!installed())
        return;
    Ring *ring = myRing();
    if (ring == nullptr)
        return;
    const std::uint64_t head =
        ring->head.load(std::memory_order_relaxed);
    copyTruncated(ring->entries[head % ringEntries], entryBytes, text);
    ring->head.store(head + 1, std::memory_order_release);
}

void
FlightRecorder::setContext(const char *text)
{
    if (!installed())
        return;
    Ring *ring = myRing();
    if (ring == nullptr)
        return;
    copyTruncated(ring->context, entryBytes, text);
}

void
FlightRecorder::dump(const char *reason)
{
    if (!installed())
        return;
    // One dump per death: the panic hook fires first, then abort()
    // raises SIGABRT whose handler would dump again.
    if (g_dumped.exchange(true, std::memory_order_acq_rel))
        return;
    int fd = -1;
    if (g_dumpPath[0] != '\0')
        fd = ::open(g_dumpPath, O_WRONLY | O_CREAT | O_APPEND, 0644);
    renderDump(reason, [fd](const char *line) {
        const std::size_t len = std::strlen(line);
        // Best effort: a failed write must not stop the dump.
        if (::write(STDERR_FILENO, line, len) < 0) {}
        if (fd >= 0 && ::write(fd, line, len) < 0) {}
    });
    if (fd >= 0)
        ::close(fd);
}

std::string
FlightRecorder::dumpToString(const char *reason)
{
    std::string out;
    renderDump(reason, [&out](const char *line) { out += line; });
    return out;
}

} // namespace csim
