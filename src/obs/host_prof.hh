/**
 * @file
 * Host-side performance observability: a low-overhead RAII scoped
 * timer hierarchy plus process memory sampling.
 *
 * Every `HOST_PROF_SCOPE("sim.run")` opens a node in the calling
 * thread's private timer tree (no locks, no atomics on the hot path);
 * nesting follows lexical scope. When a thread exits, its tree is
 * folded into a retired pool under a mutex, and HostProf::snapshot()
 * merges the retired pool with all live threads' trees into one
 * HostProfNode tree whose children are sorted by name and whose
 * counters are integer sums — so the merged tree is deterministic
 * for a fixed workload regardless of how many worker threads ran it.
 * Worker pools keep the tree *shape* thread-count invariant by
 * adopting the spawning thread's scope path (HostProfPathAdopter),
 * so a scope opened on a worker lands at the same tree position it
 * would have in the inline single-threaded execution.
 *
 * Scopes can attach simulated-instruction counts
 * (HOST_PROF_INSTRUCTIONS), from which per-scope host-MIPS is
 * derived. sampleHostMemory() reads peak/current RSS and (glibc)
 * heap usage, tracking an allocation high-water mark across samples;
 * residentBytesOfMapping() reads one mapping's resident bytes.
 *
 * Cost model: a scope is one map descent + two steady_clock reads,
 * so scopes belong at phase boundaries (a trace build, a whole sim
 * run, a sweep merge), never inside per-cycle loops. Configure with
 * -DCSIM_ENABLE_HOST_PROF=OFF and the macros compile to nothing;
 * at runtime HostProf::setEnabled(false) (or CSIM_HOST_PROF=0 in the
 * environment) reduces a scope to one relaxed atomic load.
 *
 * Threading discipline: snapshot() and reset() must run while no
 * other thread is inside a scope (e.g. after worker pools joined).
 */

#ifndef CSIM_OBS_HOST_PROF_HH
#define CSIM_OBS_HOST_PROF_HH

#include <cstdint>
#include <string>
#include <vector>

namespace csim {

/** One node of a merged (frozen) host-profile timer tree. */
struct HostProfNode
{
    std::string name;
    /** Times the scope was entered (0 for purely structural nodes). */
    std::uint64_t calls = 0;
    /** Wall nanoseconds spent inside the scope, children included. */
    std::uint64_t ns = 0;
    /** Simulated instructions attributed to this scope. */
    std::uint64_t instructions = 0;
    /** Sorted by name; the sum of child ns never exceeds ns. */
    std::vector<HostProfNode> children;

    /** Child with this name, or null. */
    const HostProfNode *find(const std::string &child) const;

    /** Sum of direct children's ns. */
    std::uint64_t childNs() const;

    /** instructions + ns of the whole subtree. */
    std::uint64_t totalInstructions() const;

    /** Host MIPS of this scope (0 when instructions or ns unknown). */
    double mips() const;
};

/**
 * Canonical duration-free rendering of a merged tree: one line per
 * node ("path calls=N instructions=M"), depth-first. Because it
 * contains no wall times, it is byte-identical across runs and
 * worker-thread counts for a deterministic workload — the form the
 * determinism tests and CI compare.
 */
std::string hostProfCanonical(const HostProfNode &root);

/** Process memory sample (Linux; zeros where unsupported). */
struct HostMemoryStats
{
    /** Kernel-tracked peak resident set (ru_maxrss). */
    std::uint64_t peakRssBytes = 0;
    /** Current resident set (/proc/self/statm). */
    std::uint64_t currentRssBytes = 0;
    /** Bytes currently allocated from the heap (glibc mallinfo2). */
    std::uint64_t heapBytes = 0;
    /** High-water mark of heapBytes across all samples so far. */
    std::uint64_t heapHighWaterBytes = 0;
};

/** Sample process memory and advance the heap high-water mark. */
HostMemoryStats sampleHostMemory();

/**
 * Resident bytes of the mapping that holds `addr`: the `Rss:` line of
 * its VMA in /proc/self/smaps (Linux; 0 when no mapping holds `addr`
 * or smaps cannot be read). This counts the pages this process has
 * mapped, which is what madvise(MADV_DONTNEED) drops; mincore() would
 * answer for the page cache instead, which that release leaves alone.
 */
std::uint64_t residentBytesOfMapping(const void *addr);

class HostProf
{
  public:
    /** True when the scope macros were compiled in. */
    static constexpr bool
    compiledIn()
    {
#ifdef CSIM_HOST_PROF
        return true;
#else
        return false;
#endif
    }

    /** Runtime gate (default on; CSIM_HOST_PROF=0 disables). */
    static bool enabled();
    static void setEnabled(bool on);

    /** Drop all accumulated timing (threads must be quiescent). */
    static void reset();

    /**
     * Deterministic merge of the retired pool and every live thread's
     * tree. The returned root is named "host" with ns equal to the
     * sum of its children (so the child-sum invariant holds at every
     * level). Call only while other threads are outside scopes.
     */
    static HostProfNode snapshot();

    /** Scope-name path from the calling thread's root to its current
     *  scope (empty at top level or when disabled). */
    static std::vector<std::string> currentPath();
};

/**
 * RAII scope timer. Use through HOST_PROF_SCOPE so the object (and
 * its clock reads) vanish entirely in CSIM_ENABLE_HOST_PROF=OFF
 * builds.
 */
class HostProfScope
{
  public:
    explicit HostProfScope(const char *name);
    ~HostProfScope();

    HostProfScope(const HostProfScope &) = delete;
    HostProfScope &operator=(const HostProfScope &) = delete;

  private:
    void *node_ = nullptr; ///< live node; null when disabled
    std::uint64_t startNs_ = 0;
};

/**
 * Re-roots the calling thread's scope stack at a path captured on
 * another thread (HostProf::currentPath()). Worker-pool threads adopt
 * the spawning thread's path before running jobs, so their scopes
 * merge into the same tree positions the inline execution would use —
 * the adopted nodes themselves accumulate no calls or time.
 */
class HostProfPathAdopter
{
  public:
    explicit HostProfPathAdopter(const std::vector<std::string> &path);
    ~HostProfPathAdopter();

    HostProfPathAdopter(const HostProfPathAdopter &) = delete;
    HostProfPathAdopter &operator=(const HostProfPathAdopter &) =
        delete;

  private:
    std::size_t depth_ = 0;
};

/** Attribute simulated instructions to the current scope. */
void hostProfAddInstructions(std::uint64_t n);

} // namespace csim

#define CSIM_HOST_PROF_CONCAT2(a, b) a##b
#define CSIM_HOST_PROF_CONCAT(a, b) CSIM_HOST_PROF_CONCAT2(a, b)

#ifdef CSIM_HOST_PROF
/** Open a named timer scope for the rest of the enclosing block. */
#define HOST_PROF_SCOPE(name)                                              \
    ::csim::HostProfScope CSIM_HOST_PROF_CONCAT(csim_host_prof_scope_,     \
                                                __COUNTER__)(name)
/** Credit N simulated instructions to the innermost open scope. */
#define HOST_PROF_INSTRUCTIONS(n) ::csim::hostProfAddInstructions(n)
#else
#define HOST_PROF_SCOPE(name) ((void)0)
#define HOST_PROF_INSTRUCTIONS(n) ((void)0)
#endif

#endif // CSIM_OBS_HOST_PROF_HH
