/**
 * @file
 * Uop-stream generators: the executable side of the workloads.
 *
 * Each generator walks a structure built by builders.cc *through the
 * simulated memory* — the address of every pointer load is the value
 * actually stored at the previous node — and emits the corresponding
 * uop sequence (address-generation ALUs, payload loads, the pointer
 * load itself, loop/compare branches). Register dependencies are
 * explicit, so the timing core sees genuine pointer-chase serial
 * chains and genuine MLP for independent streams.
 *
 * Generators are combined by MixGen with per-source weights to form
 * the Table 2 benchmark suite (suite.hh).
 */

#ifndef CDP_WORKLOADS_GENERATORS_HH
#define CDP_WORKLOADS_GENERATORS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/uop.hh"
#include "workloads/builders.hh"
#include "workloads/heap_allocator.hh"

namespace cdp
{

/**
 * Base for generators that emit whole basic blocks into a queue and
 * hand them out one uop at a time.
 */
class BlockUopSource : public UopSource
{
  public:
    Uop next() override { return take(); }

    /**
     * The next uop, without a virtual call: what next() returns and
     * what MixGen::fill hands out.
     */
    Uop
    take()
    {
        // A block is always fully consumed before the next one is
        // staged, so the queue is a flat vector with a read cursor
        // (its capacity survives the clear): one uop hand-off is an
        // indexed read, the hottest edge in the whole simulator.
        while (queueHead == queue.size()) {
            queue.clear();
            queueHead = 0;
            emitBlock();
        }
        return queue[queueHead++];
    }

  protected:
    /** Emit at least one uop into the queue. */
    virtual void emitBlock() = 0;

    /** Serialize the staged uop queue (helper for subclasses). */
    void saveQueue(snap::Writer &w) const;
    /** Restore the staged uop queue (helper for subclasses). */
    void loadQueue(snap::Reader &r);

    void
    pushLoad(Addr pc, Addr va, std::int8_t src, std::int8_t dst,
             bool pointer)
    {
        Uop u;
        u.type = UopType::Load;
        u.pc = pc;
        u.vaddr = va;
        u.src0 = src;
        u.dst = dst;
        u.pointerLoad = pointer;
        queue.push_back(u);
    }

    void
    pushStore(Addr pc, Addr va, std::int8_t src)
    {
        Uop u;
        u.type = UopType::Store;
        u.pc = pc;
        u.vaddr = va;
        u.src0 = src;
        queue.push_back(u);
    }

    void
    pushAlu(Addr pc, std::int8_t src, std::int8_t dst)
    {
        Uop u;
        u.type = UopType::Alu;
        u.pc = pc;
        u.src0 = src;
        u.dst = dst;
        queue.push_back(u);
    }

    /** An FP uop when @p fp, else an ALU uop; the type is a mask
     *  select, so a random @p fp costs no host mispredict. */
    void
    pushCompute(Addr pc, std::int8_t src, std::int8_t dst, bool fp)
    {
        constexpr auto alu = static_cast<std::uint8_t>(UopType::Alu);
        constexpr auto fpu = static_cast<std::uint8_t>(UopType::Fp);
        const auto mask = static_cast<std::uint8_t>(-static_cast<int>(fp));
        Uop u;
        u.type = static_cast<UopType>(alu ^ ((alu ^ fpu) & mask));
        u.pc = pc;
        u.src0 = src;
        u.dst = dst;
        queue.push_back(u);
    }

    void
    pushBranch(Addr pc, bool taken, std::int8_t src = noReg)
    {
        Uop u;
        u.type = UopType::Branch;
        u.pc = pc;
        u.taken = taken;
        u.src0 = src;
        queue.push_back(u);
    }

    std::vector<Uop> queue;
    std::size_t queueHead = 0;
};

/** Options common to the structure-walking generators. */
struct WalkOptions
{
    unsigned aluPerNode = 2;   //!< compute uops per node visited
    unsigned payloadLoads = 1; //!< extra (non-pointer) loads per node
    double fpFrac = 0.2;       //!< fraction of compute uops that are FP
};

/**
 * Endless traversal of a circular linked list.
 */
class ListTraversalGen : public BlockUopSource
{
  public:
    ListTraversalGen(HeapAllocator &heap, BuiltList list, Addr pc_base,
                     unsigned reg_base, WalkOptions opts,
                     std::uint64_t seed);

    const char *name() const override { return "list-traversal"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, list, pcBase, regBase, opts, fpChance) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    HeapAllocator &heap;
    BuiltList list;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng::Threshold fpChance;
    Rng rng;
    Addr cur;
};

/**
 * Repeated random root-to-leaf searches of a binary search tree.
 * Compare-direction branches are data-dependent and mispredict
 * roughly half the time, as real search code does.
 */
class TreeSearchGen : public BlockUopSource
{
  public:
    TreeSearchGen(HeapAllocator &heap, BuiltTree tree, Addr pc_base,
                  unsigned reg_base, WalkOptions opts,
                  std::uint64_t seed);

    const char *name() const override { return "tree-search"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, tree, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    HeapAllocator &heap;
    BuiltTree tree;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
    Addr cur;
};

/**
 * Random hash-table lookups: compute the bucket, load the head
 * pointer, walk the chain.
 */
class HashLookupGen : public BlockUopSource
{
  public:
    HashLookupGen(HeapAllocator &heap, BuiltHash hash, Addr pc_base,
                  unsigned reg_base, WalkOptions opts,
                  std::uint64_t seed);

    const char *name() const override { return "hash-lookup"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, hash, pcBase, regBase, opts, nodeCount) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    HeapAllocator &heap;
    BuiltHash hash;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    /** hash.nodes.size() (1 when empty, where it is never drawn). */
    Rng::Divisor nodeCount;
    Rng rng;
    /** Cap on chain hops per lookup (safety on degenerate chains). */
    static constexpr unsigned maxChain = 16;
};

/**
 * Random walk over a directed graph: per step, load the node header
 * (degree + adjacency pointer), load one adjacency entry, hop. The
 * adjacency arrays are lines densely packed with node pointers — a
 * content-prefetcher feast that neither a stride nor a Markov
 * prefetcher can exploit on a first visit.
 */
class GraphWalkGen : public BlockUopSource
{
  public:
    GraphWalkGen(HeapAllocator &heap, BuiltGraph graph, Addr pc_base,
                 unsigned reg_base, WalkOptions opts,
                 std::uint64_t seed);

    const char *name() const override { return "graph-walk"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, graph, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    HeapAllocator &heap;
    BuiltGraph graph;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
    Addr cur;
};

/**
 * Repeated random-key searches of a B-tree: per level, load the
 * entry count, compare against the separator keys, branch, load the
 * chosen child pointer. Inner-node fills contain up to `fanout`
 * child pointers, so one scan primes several alternative descents.
 */
class BTreeSearchGen : public BlockUopSource
{
  public:
    BTreeSearchGen(HeapAllocator &heap, BuiltBTree tree, Addr pc_base,
                   unsigned reg_base, WalkOptions opts,
                   std::uint64_t seed);

    const char *name() const override { return "btree-search"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, tree, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    HeapAllocator &heap;
    BuiltBTree tree;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
};

/**
 * Constant-stride sweep over a data region — the regular traffic the
 * baseline stride prefetcher eats for breakfast.
 */
class StrideStreamGen : public BlockUopSource
{
  public:
    StrideStreamGen(Addr region_base, Addr region_bytes,
                    Addr stride_bytes, Addr pc_base, unsigned reg_base,
                    unsigned alu_per_iter, std::uint64_t seed);

    const char *name() const override { return "stride-stream"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(base, bytes, stride, pcBase, regBase, aluPerIter) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    Addr base;
    Addr bytes;
    Addr stride;
    Addr pcBase;
    unsigned regBase;
    unsigned aluPerIter;
    Rng rng;
    Addr pos = 0;
};

/**
 * Independent loads at random offsets in a region: irregular but
 * non-pointer traffic (neither prefetcher should cover it).
 */
class RandomAccessGen : public BlockUopSource
{
  public:
    RandomAccessGen(Addr region_base, Addr region_bytes, Addr pc_base,
                    unsigned reg_base, std::uint64_t seed);

    const char *name() const override { return "random-access"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(base, bytes, pcBase, regBase, words) -- workload shape is rebuilt identically at construction from the same seed and config; only the RNG travels
    Addr base;
    Addr bytes;
    Addr pcBase;
    unsigned regBase;
    Rng::Divisor words; //!< bytes / 4
    Rng rng;
};

/**
 * Compute padding: ALU/FP chains with loop branches, an optional dose
 * of random (mispredictable) branches, and loads against a small
 * "hot" region that stays cache-resident. The hot loads give the uop
 * stream a realistic load density (and keep the DL1/UL2 busy with hit
 * traffic) without adding L2 misses.
 */
class ComputeGen : public BlockUopSource
{
  public:
    ComputeGen(Addr pc_base, unsigned reg_base, unsigned block_uops,
               double fp_frac, double branch_random_prob,
               Addr hot_base, Addr hot_bytes, unsigned hot_loads,
               std::uint64_t seed);

    const char *name() const override { return "compute"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(pcBase, regBase, blockUops, fpChance, randomBranch, hotBase, hotWords, hotLoads) -- workload shape is rebuilt identically at construction from the same seed and config; only the RNG travels
    Addr pcBase;
    unsigned regBase;
    unsigned blockUops;
    Rng::Threshold fpChance;
    Rng::Threshold randomBranch;
    Addr hotBase;
    Rng::Divisor hotWords; //!< hot_bytes / 4 (1 when no hot loads)
    unsigned hotLoads;
    Rng rng;
};

/**
 * Weighted uop-level interleaving of sub-sources. Each sub-source
 * owns a disjoint register window, so interleaving does not create
 * false dependencies.
 */
class MixGen : public UopSource
{
  public:
    MixGen(std::string mix_name, std::uint64_t seed);

    /** Add a sub-source with a selection weight. */
    void add(std::unique_ptr<BlockUopSource> src, double weight);

    /**
     * Take ownership of an auxiliary object (e.g. the allocator of a
     * secondary address-space segment) that sub-sources reference.
     */
    void adopt(std::unique_ptr<HeapAllocator> aux);

    Uop next() override;
    /** One selector draw per slot, exactly as next() makes. */
    void fill(std::span<Uop> out) override;
    const char *name() const override { return mixName.c_str(); }

    /**
     * Serialize the mix RNG, every sub-source (name-guarded so a
     * layout change fails loudly), and the bump state of the adopted
     * auxiliary allocators. Those heaps are built with the mix and
     * never allocate again, so loadState() verifies their state
     * instead of restoring it (DESIGN.md §11).
     */
    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  private:
    /**
     * Index of the sub-source for the next uop (one draw from @p r):
     * the count of cumulative weights <= uniform() * totalWeight, the
     * upper_bound index, summed from comparisons on the draw's top 53
     * bits against the thresholds add() derives, so it costs no FP
     * and no host mispredict.
     */
    std::size_t pick(Rng &r) const
    {
        const std::uint64_t k = r.next64() >> 11;
        std::size_t idx = 0;
        for (const std::uint64_t t : pickThresholds)
            idx += k >= t ? 1 : 0;
        return std::min(idx, sources.size() - 1);
    }

    // cdplint: transient(mixName, cumWeights, totalWeight, pickThresholds) -- mix recipe is construction-time; only the constituent sources and the selector RNG travel
    std::string mixName;
    Rng rng;
    std::vector<std::unique_ptr<BlockUopSource>> sources;
    std::vector<std::unique_ptr<HeapAllocator>> auxiliaries;
    std::vector<double> cumWeights;
    double totalWeight = 0.0;
    /**
     * Per cumulative weight c, the least k = x >> 11 with
     * unit(x) * totalWeight >= c (2^53 when none). unit(x) is k 2^-53
     * exactly and a product with totalWeight > 0 never decreases as k
     * grows, so c <= unit(x) * totalWeight iff k >= that threshold.
     */
    std::vector<std::uint64_t> pickThresholds;
};

} // namespace cdp

#endif // CDP_WORKLOADS_GENERATORS_HH
