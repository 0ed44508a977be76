#include "memsys/queued_arbiter.hh"

#include "check/check.hh"
#include "snapshot/ckpt_io.hh"

namespace cdp
{

QueuedArbiter::QueuedArbiter(unsigned capacity, StatGroup *stats,
                             const std::string &name)
    : capacity(capacity), residentLines(capacity),
      accepted(stats ? *stats : dummyGroup, name + ".accepted",
               "requests accepted into the arbiter"),
      rejected(stats ? *stats : dummyGroup, name + ".rejected",
               "requests squashed because the arbiter was full"),
      displaced(stats ? *stats : dummyGroup, name + ".displaced",
                "prefetches dropped to admit a demand request"),
      issued(stats ? *stats : dummyGroup, name + ".issued",
             "requests handed to the drain logic")
{
    for (auto &q : queues)
        q = RingDeque<MemRequest>(capacity);
}

bool
QueuedArbiter::dropLowestPrefetch()
{
    // Content prefetches first (lowest priority), deepest entry last
    // in FIFO order; within the class the *newest* (deepest in the
    // chain, most speculative) request is the sacrifice.
    for (unsigned p = numPriorities; p-- > 1;) {
        auto &q = queues[p];
        if (!q.empty()) {
            noteRemoved(q.back().lineVa);
            q.pop_back();
            --total;
            ++displaced;
            ++droppedCount;
            return true;
        }
    }
    return false;
}

EnqueueResult
QueuedArbiter::enqueue(const MemRequest &req)
{
    const unsigned prio = req.priority();
    CDP_CHECK(prio < numPriorities);
    CDP_CHECK(req.lineVa == lineAlign(req.lineVa));
    if (total >= capacity) {
        if (prio == 0 && dropLowestPrefetch()) {
            queues[prio].push_back(req);
            noteResident(req.lineVa);
            ++total;
            ++accepted;
            ++enqueuedCount;
            return EnqueueResult::AcceptedDisplaced;
        }
        ++rejected;
        ++droppedCount;
        ++enqueuedCount;
        return EnqueueResult::Rejected;
    }
    queues[prio].push_back(req);
    noteResident(req.lineVa);
    ++total;
    ++accepted;
    ++enqueuedCount;
    return EnqueueResult::Accepted;
}

std::optional<MemRequest>
QueuedArbiter::dequeue()
{
    for (unsigned p = 0; p < numPriorities; ++p) {
        auto &q = queues[p];
        if (!q.empty()) {
            MemRequest r = q.front();
            q.pop_front();
            noteRemoved(r.lineVa);
            --total;
            ++issuedCount;
            ++issued;
            CDP_CHECK(r.priority() == p);
            return r;
        }
    }
    CDP_CHECK(total == 0);
    return std::nullopt;
}

bool
QueuedArbiter::contains(Addr line_va) const
{
    return residentLines.contains(lineAlign(line_va));
}

std::optional<MemRequest>
QueuedArbiter::extractPrefetch(Addr line_va)
{
    const Addr la = lineAlign(line_va);
    if (!residentLines.contains(la))
        return std::nullopt;
    for (unsigned p = 1; p < numPriorities; ++p) {
        auto &q = queues[p];
        for (std::size_t i = 0; i < q.size(); ++i) {
            if (q[i].lineVa == la) {
                MemRequest r = q[i];
                q.erase(i);
                noteRemoved(la);
                --total;
                ++extractedCount;
                CDP_CHECK(isPrefetch(r.type));
                return r;
            }
        }
    }
    return std::nullopt;
}

void
QueuedArbiter::saveState(snap::Writer &w) const
{
    if (total != 0)
        throw snap::SnapshotError(
            "cannot checkpoint an arbiter holding " +
            std::to_string(total) +
            " queued request(s) — checkpoint only at quiesce points");
    // The conservation ledger spans the machine's whole lifetime (the
    // auditArbiter invariant balances against it), so it must travel
    // with the checkpoint even though the queues are empty.
    w.u64(enqueuedCount);
    w.u64(issuedCount);
    w.u64(droppedCount);
    w.u64(extractedCount);
}

void
QueuedArbiter::loadState(snap::Reader &r)
{
    if (total != 0)
        r.fail("restore target arbiter is not empty");
    enqueuedCount = r.u64();
    issuedCount = r.u64();
    droppedCount = r.u64();
    extractedCount = r.u64();
    if (enqueuedCount != issuedCount + droppedCount + extractedCount)
        r.fail("arbiter ledger does not balance: enqueued " +
               std::to_string(enqueuedCount) + " != issued " +
               std::to_string(issuedCount) + " + dropped " +
               std::to_string(droppedCount) + " + extracted " +
               std::to_string(extractedCount));
}

} // namespace cdp
