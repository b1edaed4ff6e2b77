#include "workloads/registry.hh"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "frontend/gshare.hh"
#include "obs/host_prof.hh"
#include "trace/trace_store.hh"

namespace csim {

namespace {

struct Entry
{
    const char *name;
    WorkloadBuilder builder;
    WorkloadPreparer preparer;
};

constexpr Entry entries[] = {
    {"bzip2", buildBzip2, prepareBzip2},
    {"crafty", buildCrafty, prepareCrafty},
    {"eon", buildEon, prepareEon},
    {"gap", buildGap, prepareGap},
    {"gcc", buildGcc, prepareGcc},
    {"gzip", buildGzip, prepareGzip},
    {"mcf", buildMcf, prepareMcf},
    {"parser", buildParser, prepareParser},
    {"perl", buildPerl, preparePerl},
    {"twolf", buildTwolf, prepareTwolf},
    {"vortex", buildVortex, prepareVortex},
    {"vpr", buildVpr, prepareVpr},
};

/** Chunk buffers of a streaming store build: one can be emulated
 *  while one is linked and annotated and one is written. */
constexpr std::size_t ringDepth = 3;

/**
 * In-order hand-off of ring slots from one build stage to the next: a
 * bounded circular buffer under a mutex, in the manner of zsim's
 * CircBuffer. Only ringDepth slots exist, so a push never waits.
 */
class SlotQueue
{
  public:
    void
    push(std::size_t slot)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            CSIM_ASSERT(count_ < ringDepth);
            slots_[(head_ + count_) % ringDepth] = slot;
            ++count_;
        }
        cv_.notify_one();
    }

    /** Wait for the next slot. False once the queue is closed and
     *  drained, or at once when it is aborted. */
    bool
    pop(std::size_t &slot)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock,
                 [this] { return count_ > 0 || closed_ || aborted_; });
        if (aborted_ || count_ == 0)
            return false;
        slot = slots_[head_];
        head_ = (head_ + 1) % ringDepth;
        --count_;
        return true;
    }

    /** No more pushes: pop() drains what is queued, then fails. */
    void close() { raise(closed_); }
    /** Stop the consumer now, whatever is still queued. */
    void abort() { raise(aborted_); }

  private:
    void
    raise(bool &flag)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            flag = true;
        }
        cv_.notify_all();
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::array<std::size_t, ringDepth> slots_ = {};
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    bool closed_ = false;
    bool aborted_ = false;
};

/**
 * The two producer stages of a store build, each on its own thread.
 * join(), which the destructor also runs so that no way out of the
 * build leaves a thread behind, aborts every queue first: that stops
 * stages still running after the writer quit. A stage that throws
 * aborts the queues itself; join() rethrows its exception on the
 * calling thread.
 */
class StageThreads
{
  public:
    explicit StageThreads(std::array<SlotQueue *, 3> queues)
        : queues_(queues)
    {}
    ~StageThreads() { stop(); }
    StageThreads(const StageThreads &) = delete;
    StageThreads &operator=(const StageThreads &) = delete;

    template <class Stage>
    void
    start(std::size_t i, Stage stage)
    {
        threads_[i] = std::thread([this, stage] {
            try {
                stage();
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(errorMutex_);
                    if (!error_)
                        error_ = std::current_exception();
                }
                abortQueues();
            }
        });
    }

    void
    join()
    {
        stop();
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    abortQueues()
    {
        for (SlotQueue *q : queues_)
            q->abort();
    }

    void
    stop()
    {
        abortQueues();
        for (std::thread &t : threads_)
            if (t.joinable())
                t.join();
    }

    std::array<SlotQueue *, 3> queues_;
    std::mutex errorMutex_;
    std::exception_ptr error_;
    std::array<std::thread, 2> threads_;
};

/**
 * The streaming build shared by the store and the in-memory simulation
 * trace: emulate `name` in chunks of at most chunkInstructions, link
 * and annotate each chunk, and hand the annotated chunks in order to
 * `sink` on the calling thread. Three stages overlap on a fixed ring of
 * three chunk buffers: emulation on one thread, producer linking plus
 * branch and memory annotation on a second, and the sink on the
 * caller's. Each pass's state lives across chunks and every stage takes
 * the chunks in order, so the chunks concatenate to exactly what
 * buildAnnotatedTrace builds, producer links included (they are
 * global). A sink that returns false stops the build; both stage
 * threads are stopped and joined before this returns. The stage
 * threads open no host-prof scopes.
 */
void
streamAnnotatedChunks(const std::string &name, const WorkloadConfig &cfg,
                      std::uint64_t chunkInstructions,
                      const MemoryModelConfig &mem, unsigned gshare_bits,
                      const std::function<bool(const Trace &)> &sink)
{
    CSIM_ASSERT(chunkInstructions > 0);

    PreparedWorkload w = workloadPreparer(name)(cfg);
    Emulator &emu = *w.emulator;

    StreamingProducerLinker linker;
    GsharePredictor pred(gshare_bits);
    Cache l1(mem.l1);

    // Reserved on the calling thread before the stages start: malloc
    // serves each thread from its own arena, and memory a stage thread
    // allocated would stay in that arena after it is freed. Each slot
    // gets cache lines of its own: a stage updates its chunk's column
    // bookkeeping on every instruction, and slots sharing a line would
    // bounce it between the stage threads.
    struct alignas(64) RingSlot
    {
        Trace chunk;
    };
    std::array<RingSlot, ringDepth> ring;
    for (RingSlot &r : ring)
        r.chunk.reserve(
            std::min(chunkInstructions, cfg.targetInstructions));
    SlotQueue empty, emulated, annotated;
    for (std::size_t slot = 0; slot < ringDepth; ++slot)
        empty.push(slot);

    StageThreads stages({&empty, &emulated, &annotated});
    stages.start(0, [&] {
        std::uint64_t emitted = 0;
        std::size_t slot = 0;
        while (emitted < cfg.targetInstructions && !emu.done() &&
               empty.pop(slot)) {
            const std::uint64_t want = std::min(
                chunkInstructions, cfg.targetInstructions - emitted);
            Trace &chunk = ring[slot].chunk;
            chunk.clear();
            if (emu.runChunk(chunk, want) == 0)
                break;
            emitted += chunk.size();
            emulated.push(slot);
        }
        emulated.close();
    });
    stages.start(1, [&] {
        InstId base = 0;
        std::size_t slot = 0;
        while (emulated.pop(slot)) {
            Trace &chunk = ring[slot].chunk;
            linker.link(chunk, base);
            annotateBranches(chunk, pred);
            annotateMemory(chunk, l1, mem);
            base += chunk.size();
            annotated.push(slot);
        }
        annotated.close();
    });

    std::size_t slot = 0;
    while (annotated.pop(slot) && sink(ring[slot].chunk))
        empty.push(slot);
    stages.join();
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Entry &e : entries)
            v.emplace_back(e.name);
        return v;
    }();
    return names;
}

WorkloadBuilder
workloadBuilder(const std::string &name)
{
    for (const Entry &e : entries)
        if (name == e.name)
            return e.builder;
    CSIM_FATAL("unknown workload name");
}

WorkloadPreparer
workloadPreparer(const std::string &name)
{
    for (const Entry &e : entries)
        if (name == e.name)
            return e.preparer;
    CSIM_FATAL("unknown workload name");
}

Trace
buildWorkloadTrace(const std::string &name, const WorkloadConfig &cfg)
{
    return workloadBuilder(name)(cfg);
}

Trace
buildAnnotatedTrace(const std::string &name, const WorkloadConfig &cfg,
                    const MemoryModelConfig &mem, unsigned gshare_bits)
{
    HOST_PROF_SCOPE("trace.build");
    Trace trace = [&] {
        HOST_PROF_SCOPE("trace.emulate");
        return buildWorkloadTrace(name, cfg);
    }();
    {
        HOST_PROF_SCOPE("trace.linkProducers");
        trace.linkProducers();
    }
    {
        HOST_PROF_SCOPE("trace.annotateBranches");
        annotateBranches(trace, gshare_bits);
    }
    {
        HOST_PROF_SCOPE("trace.annotateMemory");
        annotateMemory(trace, mem);
    }
    HOST_PROF_INSTRUCTIONS(trace.size());
    return trace;
}

Trace
buildSimulationTrace(const std::string &name, const WorkloadConfig &cfg,
                     const MemoryModelConfig &mem, unsigned gshare_bits)
{
    // One chunk's worth is built in place: a ring would cost two thread
    // starts and two chunk copies for no overlap.
    if (cfg.targetInstructions <= defaultChunkInstructions) {
        Trace trace = buildAnnotatedTrace(name, cfg, mem, gshare_bits);
        trace.dropBuildColumns();
        return trace;
    }
    HOST_PROF_SCOPE("trace.build");
    // Sized on the calling thread, where the sink appends, before the
    // stages start (see streamAnnotatedChunks).
    Trace trace;
    trace.dropBuildColumns();
    trace.reserve(cfg.targetInstructions);
    streamAnnotatedChunks(name, cfg, defaultChunkInstructions, mem,
                          gshare_bits, [&](const Trace &chunk) {
                              trace.appendSimulationColumns(chunk);
                              return true;
                          });
    HOST_PROF_INSTRUCTIONS(trace.size());
    return trace;
}

TraceStoreBuildResult
buildTraceStoreFile(const std::string &name, const WorkloadConfig &cfg,
                    const std::string &path,
                    std::uint64_t chunkInstructions,
                    const MemoryModelConfig &mem, unsigned gshare_bits)
{
    HOST_PROF_SCOPE("trace.buildStore");
    TraceStoreWriter writer(path, cfg.targetInstructions);
    TraceStoreBuildResult res;
    streamAnnotatedChunks(name, cfg, chunkInstructions, mem, gshare_bits,
                          [&](const Trace &chunk) {
                              if (!writer.append(chunk))
                                  return false;
                              res.instructions += chunk.size();
                              return true;
                          });
    // A refused chunk failed the writer, so finalize() fails too.
    if (!writer.finalize())
        return res;
    HOST_PROF_INSTRUCTIONS(res.instructions);
    res.ok = true;
    return res;
}

} // namespace csim
