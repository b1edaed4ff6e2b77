#include "obs/host_prof.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.hh"

namespace csim {

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** A node of one thread's private (unlocked) timer tree. std::map
 *  keeps children name-sorted, which makes every merge and rendering
 *  order deterministic by construction. */
struct LiveNode
{
    LiveNode(std::string node_name, LiveNode *node_parent)
        : name(std::move(node_name)), parent(node_parent)
    {
    }

    const std::string name;
    LiveNode *const parent;
    std::map<std::string, std::unique_ptr<LiveNode>> children;
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t instructions = 0;
};

struct ThreadTree
{
    LiveNode root{"", nullptr};
    LiveNode *current = &root;
};

struct Globals
{
    std::mutex mutex;
    std::vector<ThreadTree *> active;
    /** Merged trees of threads that already exited. */
    HostProfNode retired;
    std::atomic<bool> enabled;

    Globals()
    {
        const char *env = std::getenv("CSIM_HOST_PROF");
        enabled.store(!(env && std::strcmp(env, "0") == 0),
                      std::memory_order_relaxed);
    }
};

Globals &
globals()
{
    static Globals g;
    return g;
}

/** Insertion point for (or existing) child `name` in a frozen node,
 *  preserving the sorted-children invariant. */
HostProfNode &
frozenChild(HostProfNode &dst, const std::string &name)
{
    auto it = std::lower_bound(
        dst.children.begin(), dst.children.end(), name,
        [](const HostProfNode &n, const std::string &key) {
            return n.name < key;
        });
    if (it == dst.children.end() || it->name != name) {
        HostProfNode fresh;
        fresh.name = name;
        it = dst.children.insert(it, std::move(fresh));
    }
    return *it;
}

void
mergeLive(HostProfNode &dst, const LiveNode &src)
{
    dst.calls += src.calls;
    dst.ns += src.ns;
    dst.instructions += src.instructions;
    for (const auto &[name, child] : src.children)
        mergeLive(frozenChild(dst, name), *child);
}

/** Per-thread tree, registered on first use and folded into the
 *  retired pool when the thread exits. */
struct ThreadReg
{
    ThreadTree tree;

    ThreadReg()
    {
        Globals &g = globals();
        std::lock_guard<std::mutex> lock(g.mutex);
        g.active.push_back(&tree);
    }

    ~ThreadReg()
    {
        Globals &g = globals();
        std::lock_guard<std::mutex> lock(g.mutex);
        mergeLive(g.retired, tree.root);
        g.active.erase(
            std::find(g.active.begin(), g.active.end(), &tree));
    }
};

ThreadTree &
threadTree()
{
    thread_local ThreadReg reg;
    return reg.tree;
}

LiveNode *
descend(LiveNode *from, const std::string &name)
{
    std::unique_ptr<LiveNode> &slot = from->children[name];
    if (!slot)
        slot = std::make_unique<LiveNode>(name, from);
    return slot.get();
}

/**
 * Enforce the child-sum invariant after a cross-thread merge: scopes
 * opened concurrently on worker threads can sum to more wall time
 * than their (single-threaded) parent's span, in which case the
 * parent is lifted to the children's sum — CPU-time semantics under
 * parallelism, wall-time semantics everywhere else.
 */
void
liftToChildSum(HostProfNode &node)
{
    for (HostProfNode &child : node.children)
        liftToChildSum(child);
    node.ns = std::max(node.ns, node.childNs());
}

void
canonicalLines(const HostProfNode &node, const std::string &prefix,
               std::string &out)
{
    const std::string path =
        prefix.empty() ? node.name : prefix + "/" + node.name;
    out += path;
    out += " calls=";
    out += std::to_string(node.calls);
    out += " instructions=";
    out += std::to_string(node.instructions);
    out += '\n';
    for (const HostProfNode &child : node.children)
        canonicalLines(child, path, out);
}

} // anonymous namespace

const HostProfNode *
HostProfNode::find(const std::string &child) const
{
    for (const HostProfNode &c : children)
        if (c.name == child)
            return &c;
    return nullptr;
}

std::uint64_t
HostProfNode::childNs() const
{
    std::uint64_t sum = 0;
    for (const HostProfNode &c : children)
        sum += c.ns;
    return sum;
}

std::uint64_t
HostProfNode::totalInstructions() const
{
    std::uint64_t sum = instructions;
    for (const HostProfNode &c : children)
        sum += c.totalInstructions();
    return sum;
}

double
HostProfNode::mips() const
{
    if (instructions == 0 || ns == 0)
        return 0.0;
    // instructions/us == millions of instructions per second.
    return static_cast<double>(instructions) * 1000.0 /
        static_cast<double>(ns);
}

std::string
hostProfCanonical(const HostProfNode &root)
{
    std::string out;
    canonicalLines(root, "", out);
    return out;
}

bool
HostProf::enabled()
{
    return globals().enabled.load(std::memory_order_relaxed);
}

void
HostProf::setEnabled(bool on)
{
    globals().enabled.store(on, std::memory_order_relaxed);
}

void
HostProf::reset()
{
    Globals &g = globals();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.retired = HostProfNode{};
    for (ThreadTree *tree : g.active) {
        // Quiescence contract: no scope is open anywhere, so every
        // live tree's cursor sits at its root.
        CSIM_ASSERT(tree->current == &tree->root);
        tree->root.children.clear();
        tree->root.calls = 0;
        tree->root.ns = 0;
        tree->root.instructions = 0;
    }
}

HostProfNode
HostProf::snapshot()
{
    Globals &g = globals();
    std::lock_guard<std::mutex> lock(g.mutex);
    HostProfNode root = g.retired;
    for (const ThreadTree *tree : g.active)
        mergeLive(root, tree->root);
    root.name = "host";
    liftToChildSum(root);
    // Roots never time themselves; defining the root's span as the
    // sum of its children keeps the child-sum invariant total.
    root.ns = root.childNs();
    return root;
}

std::vector<std::string>
HostProf::currentPath()
{
    std::vector<std::string> path;
    if (!enabled())
        return path;
    const ThreadTree &tree = threadTree();
    for (const LiveNode *n = tree.current; n->parent; n = n->parent)
        path.push_back(n->name);
    std::reverse(path.begin(), path.end());
    return path;
}

HostProfScope::HostProfScope(const char *name)
{
    if (!HostProf::enabled())
        return;
    ThreadTree &tree = threadTree();
    LiveNode *node = descend(tree.current, name);
    tree.current = node;
    node_ = node;
    startNs_ = nowNs();
}

HostProfScope::~HostProfScope()
{
    if (!node_)
        return;
    LiveNode *node = static_cast<LiveNode *>(node_);
    node->ns += nowNs() - startNs_;
    node->calls += 1;
    threadTree().current = node->parent;
}

HostProfPathAdopter::HostProfPathAdopter(
    const std::vector<std::string> &path)
{
    if (!HostProf::enabled() || path.empty())
        return;
    ThreadTree &tree = threadTree();
    for (const std::string &name : path)
        tree.current = descend(tree.current, name);
    depth_ = path.size();
}

HostProfPathAdopter::~HostProfPathAdopter()
{
    if (depth_ == 0)
        return;
    ThreadTree &tree = threadTree();
    for (std::size_t i = 0; i < depth_; ++i) {
        CSIM_ASSERT(tree.current->parent);
        tree.current = tree.current->parent;
    }
}

void
hostProfAddInstructions(std::uint64_t n)
{
    if (!HostProf::enabled())
        return;
    threadTree().current->instructions += n;
}

HostMemoryStats
sampleHostMemory()
{
    HostMemoryStats out;
#if defined(__linux__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        out.peakRssBytes =
            static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;

    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        unsigned long long size = 0, resident = 0;
        if (std::fscanf(f, "%llu %llu", &size, &resident) == 2)
            out.currentRssBytes = static_cast<std::uint64_t>(resident) *
                static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
        std::fclose(f);
    }
#endif
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
    const struct mallinfo2 mi = mallinfo2();
    out.heapBytes = static_cast<std::uint64_t>(mi.uordblks);
#endif

    static std::atomic<std::uint64_t> heap_high_water{0};
    std::uint64_t seen = heap_high_water.load(std::memory_order_relaxed);
    while (out.heapBytes > seen &&
           !heap_high_water.compare_exchange_weak(
               seen, out.heapBytes, std::memory_order_relaxed))
        ;
    out.heapHighWaterBytes =
        std::max(heap_high_water.load(std::memory_order_relaxed),
                 out.heapBytes);
    return out;
}

std::uint64_t
residentBytesOfMapping(const void *addr)
{
#if defined(__linux__)
    const auto at = reinterpret_cast<std::uintptr_t>(addr);
    std::ifstream smaps("/proc/self/smaps");
    bool holds = false;
    std::string line;
    while (std::getline(smaps, line)) {
        // A VMA header ("lo-hi perms offset dev inode path") is the
        // only line that scans as two hex numbers around a '-'.
        unsigned long long lo = 0, hi = 0, kib = 0;
        if (std::sscanf(line.c_str(), "%llx-%llx", &lo, &hi) == 2)
            holds = lo <= at && at < hi;
        else if (holds &&
                 std::sscanf(line.c_str(), "Rss: %llu kB", &kib) == 1)
            return static_cast<std::uint64_t>(kib) * 1024;
    }
#else
    (void)addr;
#endif
    return 0;
}

} // namespace csim
