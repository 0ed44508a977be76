/**
 * @file
 * Fixed-size, strict-priority request arbiter.
 *
 * Models both the L2 arbiter (128 entries) and the bus arbiter (32
 * entries) of Figure 6 with the policy from Section 3.5:
 *
 *  - strict priority: demand > stride prefetch > content prefetch,
 *    FIFO within a class;
 *  - a full arbiter *squashes* an arriving prefetch (no retry);
 *  - a demand arriving at a full arbiter displaces the resident
 *    prefetch with the lowest priority (deepest content prefetch
 *    first), which is then dropped;
 *  - a demand arriving at an arbiter full of demands must wait
 *    (reported to the caller, which stalls).
 */

#ifndef CDP_MEMSYS_QUEUED_ARBITER_HH
#define CDP_MEMSYS_QUEUED_ARBITER_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/line_map.hh"
#include "common/ring_deque.hh"
#include "common/types.hh"
#include "memsys/request.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace check { struct Access; }

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/** Outcome of an enqueue attempt. */
enum class EnqueueResult
{
    Accepted,        //!< request queued normally
    AcceptedDisplaced, //!< queued after dropping a resident prefetch
    Rejected,        //!< arbiter full; request squashed
};

/**
 * Priority-ordered bounded queue of MemRequests.
 */
class QueuedArbiter
{
  public:
    explicit QueuedArbiter(unsigned capacity, StatGroup *stats = nullptr,
                           const std::string &name = "arbiter");

    /** Attempt to queue @p req under the Section 3.5 policy. */
    EnqueueResult enqueue(const MemRequest &req);

    /** Highest-priority request, FIFO within class; nullopt if empty. */
    std::optional<MemRequest> dequeue();

    /**
     * The request dequeue() would return next, without removing it;
     * nullptr when empty. Lets the drain scheduler compute the
     * earliest cycle the head could issue.
     */
    const MemRequest *peek() const
    {
        for (const auto &q : queues) {
            if (!q.empty())
                return &q.front();
        }
        return nullptr;
    }

    /**
     * Is a request for the virtual line @p line_va resident in any
     * class? The L2 arbiter sits before address translation in our
     * pipeline, so matching is by virtual line address.
     */
    bool contains(Addr line_va) const;

    /**
     * Remove and return the queued *prefetch* for @p line_va, if one
     * exists (used when a demand promotes a not-yet-started prefetch).
     */
    std::optional<MemRequest> extractPrefetch(Addr line_va);

    bool empty() const { return total == 0; }
    std::size_t size() const { return total; }
    unsigned capacityOf() const { return capacity; }
    std::size_t sizeOfClass(unsigned prio) const
    {
        return queues[prio].size();
    }

    std::uint64_t displacedCount() const { return displaced.value(); }
    std::uint64_t rejectedCount() const { return rejected.value(); }
    std::uint64_t issuedCountStat() const { return issued.value(); }

    /**
     * Serialize the lifetime conservation ledger. Checkpoints are
     * taken only at quiesce points, so the queues themselves must be
     * empty — saving a non-empty arbiter throws snap::SnapshotError.
     */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    friend struct check::Access;

    /** Drop the lowest-priority resident prefetch; false if none. */
    bool dropLowestPrefetch();

    void noteResident(Addr line_va)
    {
        ++*residentLines.emplace(line_va, 0).first;
    }
    void noteRemoved(Addr line_va)
    {
        unsigned *n = residentLines.find(line_va);
        if (--*n == 0)
            residentLines.erase(line_va);
    }

    // cdplint: transient(capacity) -- construction-time geometry; checkpoints are taken at quiesce points
    unsigned capacity;
    /** One FIFO per priority class, each able to hold the whole
     *  arbiter (a class may own every slot). */
    // cdplint: transient(queues) -- saveState throws unless the arbiter is empty, so there is never queue content to serialize
    RingDeque<MemRequest> queues[numPriorities];
    /**
     * Membership index over the queues (line VA -> resident count),
     * so contains() — called once per would-be prefetch — is O(1)
     * instead of a scan of every class. Pure acceleration: only
     * membership is ever queried, never iteration order.
     */
    // cdplint: transient(residentLines) -- derived index over queues; empty whenever the (quiesced) arbiter is checkpointable
    LineMap<unsigned> residentLines;
    std::size_t total = 0;

    /**
     * Lifetime conservation ledger, deliberately separate from the
     * resettable Scalars below (statistics are zeroed at the end of
     * warm-up while requests may still be resident, so the stats
     * cannot balance). Invariant (auditArbiter): enqueuedCount ==
     * issuedCount + droppedCount + extractedCount + size().
     */
    std::uint64_t enqueuedCount = 0;
    std::uint64_t issuedCount = 0;
    std::uint64_t droppedCount = 0;  //!< rejected + displaced
    std::uint64_t extractedCount = 0;

    // cdplint: transient(dummyGroup, accepted, rejected, displaced, issued) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup;
    Scalar accepted;
    Scalar rejected;
    Scalar displaced;
    Scalar issued;
};

} // namespace cdp

#endif // CDP_MEMSYS_QUEUED_ARBITER_HH
