#include "check/invariants.hh"

#include <algorithm>
#include <sstream>

#include "check/access.hh"

namespace cdp
{
namespace check
{

namespace
{

std::ostream &
operator<<(std::ostream &os, const MshrEntry &e)
{
    os << reqTypeName(e.type) << " pa=0x" << std::hex << e.linePa
       << " va=0x" << e.lineVa << " ea=0x" << e.vaddr << std::dec
       << " depth=" << e.depth << " done@" << e.completion
       << (e.promoted ? " promoted" : "")
       << (e.widthLine ? " width" : "")
       << (e.pollution ? " pollution" : "")
       << (e.strideOverlap ? " overlap" : "");
    return os;
}

std::ostream &
operator<<(std::ostream &os, const MemRequest &r)
{
    os << reqTypeName(r.type) << " id=" << r.id << " va=0x" << std::hex
       << r.lineVa << std::dec << " depth=" << r.depth << " enq@"
       << r.enqueued << (r.widthLine ? " width" : "");
    return os;
}

} // namespace

std::string
dumpCacheSet(const Cache &c, unsigned set, const char *who)
{
    const auto &lines = Access::lines(c);
    const unsigned ways = c.numWays();
    std::ostringstream os;
    os << who << ": set " << set << " of " << c.numSets() << " ("
       << ways << "-way, global lru stamp "
       << Access::lruStamp(c) << ")\n";
    for (unsigned w = 0; w < ways; ++w) {
        const CacheLine &l =
            lines[static_cast<std::size_t>(set) * ways + w];
        os << "  way " << w << ": ";
        if (!l.valid) {
            os << "invalid\n";
            continue;
        }
        os << "tag=0x" << std::hex << l.tag << std::dec << " lru="
           << l.lruStamp << " depth="
           << static_cast<unsigned>(l.storedDepth) << " fill="
           << reqTypeName(l.fillType) << " fill@" << l.fillCycle
           << (l.prefetched ? " prefetched" : "")
           << (l.everUsed ? " used" : "") << "\n";
    }
    return os.str();
}

void
auditCache(const Cache &c, unsigned max_depth,
           [[maybe_unused]] const char *who)
{
    const auto &lines = Access::lines(c);
    const unsigned ways = c.numWays();
    const unsigned sets = c.numSets();
    const std::uint64_t global = Access::lruStamp(c);

    for (unsigned s = 0; s < sets; ++s) {
        const CacheLine *base =
            &lines[static_cast<std::size_t>(s) * ways];
        for (unsigned w = 0; w < ways; ++w) {
            const CacheLine &l = base[w];
            if (!l.valid)
                continue;
            CDP_CHECK_MSG(l.tag == lineAlign(l.tag),
                          dumpCacheSet(c, s, who));
            CDP_CHECK_MSG(Access::setOf(c, l.tag) == s,
                          dumpCacheSet(c, s, who));
            CDP_CHECK_MSG(l.lruStamp <= global,
                          dumpCacheSet(c, s, who));
            CDP_CHECK_MSG(l.storedDepth <= max_depth,
                          dumpCacheSet(c, s, who));
            for (unsigned v = w + 1; v < ways; ++v) {
                const CacheLine &o = base[v];
                if (!o.valid)
                    continue;
                CDP_CHECK_MSG(o.tag != l.tag, dumpCacheSet(c, s, who));
                CDP_CHECK_MSG(o.lruStamp != l.lruStamp,
                              dumpCacheSet(c, s, who));
            }
        }
    }
}

std::vector<std::pair<Addr, MshrEntry>>
sortedMshrEntries(const MshrFile &m)
{
    std::vector<std::pair<Addr, MshrEntry>> snap;
    snap.reserve(m.size());
    Access::entries(m).forEach([&](Addr key, const MshrEntry &e) {
        snap.emplace_back(key, e);
    });
    std::sort(snap.begin(), snap.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return snap;
}

std::string
dumpMshr(const MshrFile &m, const char *who)
{
    std::ostringstream os;
    os << who << ": " << m.size() << "/" << m.capacity()
       << " entries\n";
    for (const auto &[key, e] : sortedMshrEntries(m)) {
        os << "  [0x" << std::hex << key << std::dec << "] " << e
           << "\n";
    }
    return os.str();
}

void
auditMshr(const MshrFile &m, unsigned content_depth_max,
          [[maybe_unused]] const char *who)
{
    CDP_CHECK_MSG(Access::entries(m).size() <= m.capacity(),
                  dumpMshr(m, who));
    for (const auto &[key, e] : sortedMshrEntries(m)) {
        CDP_CHECK_MSG(key == lineAlign(key), dumpMshr(m, who));
        CDP_CHECK_MSG(e.linePa == key, dumpMshr(m, who));
        // Promotion legality (Section 3.5): promoting an in-flight
        // prefetch reclassifies it as a demand; an entry can never be
        // both promoted and still prefetch-class.
        CDP_CHECK_MSG(!(e.promoted && isPrefetch(e.type)),
                      dumpMshr(m, who));
        // Width lines are only ever born as prefetches; a demand-class
        // width entry must have arrived there via promotion.
        CDP_CHECK_MSG(!e.widthLine || isPrefetch(e.type) || e.promoted,
                      dumpMshr(m, who));
        if (e.type == ReqType::ContentPrefetch)
            CDP_CHECK_MSG(e.depth <= content_depth_max,
                          dumpMshr(m, who));
    }
}

std::size_t
prefetchEntryCount(const MshrFile &m)
{
    std::size_t n = 0;
    Access::entries(m).forEach([&](Addr, const MshrEntry &e) {
        if (isPrefetch(e.type) || e.promoted)
            ++n;
    });
    return n;
}

std::string
dumpArbiter(const QueuedArbiter &a, const char *who)
{
    std::ostringstream os;
    os << who << ": " << a.size() << "/" << a.capacityOf()
       << " resident; enqueued=" << Access::enqueuedCount(a)
       << " issued=" << Access::issuedCount(a)
       << " dropped=" << Access::droppedCount(a)
       << " extracted=" << Access::extractedCount(a) << "\n";
    for (unsigned p = 0; p < numPriorities; ++p) {
        os << "  class " << p << " (" << a.sizeOfClass(p) << "):\n";
        const auto &q = Access::classQueue(a, p);
        for (std::size_t i = 0; i < q.size(); ++i)
            os << "    " << q[i] << "\n";
    }
    return os.str();
}

void
auditArbiter(const QueuedArbiter &a, [[maybe_unused]] const char *who)
{
    std::size_t resident = 0;
    for (unsigned p = 0; p < numPriorities; ++p) {
        const auto &q = Access::classQueue(a, p);
        resident += q.size();
        for (std::size_t i = 0; i < q.size(); ++i) {
            const MemRequest &r = q[i];
            // Strict-priority structure: a request must sit in the
            // queue of its own class, or arbitration order is broken.
            CDP_CHECK_MSG(r.priority() == p, dumpArbiter(a, who));
            CDP_CHECK_MSG(r.lineVa == lineAlign(r.lineVa),
                          dumpArbiter(a, who));
        }
    }
    CDP_CHECK_MSG(resident == a.size(), dumpArbiter(a, who));
    CDP_CHECK_MSG(a.size() <= a.capacityOf(), dumpArbiter(a, who));
    // Conservation: every request ever accepted either left through
    // an accounted exit (issued to the bus, displaced by a demand,
    // extracted for promotion) or is still resident. Dropped and
    // displaced exits carry stats (arb.rejected / arb.displaced).
    CDP_CHECK_MSG(Access::enqueuedCount(a) ==
                      Access::issuedCount(a) + Access::droppedCount(a) +
                          Access::extractedCount(a) + a.size(),
                  dumpArbiter(a, who));
}

std::string
dumpTlb(const Tlb &t, const char *who)
{
    std::ostringstream os;
    os << who << ": " << t.numEntries() << " entries, "
       << t.numWays() << "-way\n";
    for (const auto &e : Access::tlbEntries(t)) {
        if (!e.valid)
            continue;
        os << "  vpn=0x" << std::hex << e.vpn << " -> frame=0x"
           << e.framePa << std::dec << "\n";
    }
    return os.str();
}

void
auditTlb(const Tlb &t, const PageTable &pt,
         [[maybe_unused]] const char *who)
{
    for (const auto &e : Access::tlbEntries(t)) {
        if (!e.valid)
            continue;
        const Addr va = e.vpn << pageShift;
        const auto pa = pt.translate(va);
        // Every cached translation must be backed by a live mapping
        // that agrees on the frame; anything else is a stale or
        // fabricated TLB entry.
        CDP_CHECK_MSG(pa.has_value(), dumpTlb(t, who));
        CDP_CHECK_MSG(!pa || *pa == e.framePa, dumpTlb(t, who));
        CDP_CHECK_MSG(e.framePa == pageAlign(e.framePa),
                      dumpTlb(t, who));
    }
}

} // namespace check
} // namespace cdp
