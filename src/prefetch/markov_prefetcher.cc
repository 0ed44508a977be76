#include "prefetch/markov_prefetcher.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

namespace
{

unsigned
floorPow2(std::uint64_t v)
{
    unsigned p = 1;
    while (static_cast<std::uint64_t>(p) * 2 <= v)
        p *= 2;
    return p;
}

} // namespace

MarkovPrefetcher::MarkovPrefetcher(std::uint64_t capacity_bytes,
                                   unsigned ways, unsigned fanout,
                                   StatGroup *stats)
    : Prefetcher("markov", MissStream::L2, stats,
                 "markov prefetches issued"),
      ways(ways), fanout(fanout),
      trained(group(stats), "markov.trained", "STAB transitions recorded")
{
    if (fanout > maxPrefetchesPerMiss)
        throw std::invalid_argument(
            "MarkovPrefetcher: fan-out " + std::to_string(fanout) +
            " exceeds " + std::to_string(maxPrefetchesPerMiss));
    if (capacity_bytes == 0) {
        entryCapacity = 0;
    } else {
        const std::uint64_t entries =
            std::max<std::uint64_t>(ways, capacity_bytes / bytesPerEntry);
        numSets = floorPow2(entries / ways);
        entryCapacity = static_cast<std::uint64_t>(numSets) * ways;
        setTable.resize(entryCapacity);
    }
}

MarkovPrefetcher::Entry *
MarkovPrefetcher::findEntry(Addr line)
{
    if (entryCapacity == 0) {
        auto it = bigTable.find(line);
        return it == bigTable.end() ? nullptr : &it->second;
    }
    const unsigned set = (line >> lineShift) & (numSets - 1);
    Entry *base = &setTable[static_cast<std::size_t>(set) * ways];
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].valid && base[w].tag == line)
            return &base[w];
    }
    return nullptr;
}

MarkovPrefetcher::Entry &
MarkovPrefetcher::allocEntry(Addr line)
{
    if (entryCapacity == 0) {
        Entry &e = bigTable[line];
        e.tag = line;
        e.valid = true;
        return e;
    }
    const unsigned set = (line >> lineShift) & (numSets - 1);
    Entry *base = &setTable[static_cast<std::size_t>(set) * ways];
    Entry *victim = &base[0];
    for (unsigned w = 0; w < ways; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == line)
            return e;
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    victim->tag = line;
    victim->valid = true;
    victim->successors.clear();
    return *victim;
}

void
MarkovPrefetcher::train(Addr prev, Addr line)
{
    Entry &e = allocEntry(prev);
    e.lruStamp = ++stamp;
    auto &succ = e.successors;
    auto it = std::find(succ.begin(), succ.end(), line);
    if (it != succ.end())
        succ.erase(it);
    succ.insert(succ.begin(), line);
    if (succ.size() > fanout)
        succ.resize(fanout);
    ++trained;
}

PrefetchList
MarkovPrefetcher::predict(Addr /*pc*/, Addr vaddr)
{
    const Addr line = lineAlign(vaddr);
    PrefetchList out;

    if (Entry *e = findEntry(line)) {
        e->lruStamp = ++stamp;
        for (Addr succ : e->successors)
            out.push_back(succ);
    }

    if (havePrev && prevMissLine != line)
        train(prevMissLine, line);
    prevMissLine = line;
    havePrev = true;
    return out;
}

std::uint64_t
MarkovPrefetcher::population() const
{
    if (entryCapacity == 0)
        return bigTable.size();
    std::uint64_t n = 0;
    for (const auto &e : setTable)
        n += e.valid ? 1 : 0;
    return n;
}

namespace
{

void
saveMarkovEntry(snap::Writer &w, Addr tag, std::uint64_t lru_stamp,
                bool valid, const std::vector<Addr> &successors)
{
    w.u32(tag);
    w.u64(lru_stamp);
    w.boolean(valid);
    w.u64(successors.size());
    for (const Addr s : successors)
        w.u32(s);
}

} // namespace

void
MarkovPrefetcher::saveState(snap::Writer &w) const
{
    w.u64(entryCapacity);
    w.u64(ways);
    w.u64(fanout);
    w.u64(numSets);
    w.u64(stamp);
    w.u32(prevMissLine);
    w.boolean(havePrev);

    w.u64(setTable.size());
    for (const Entry &e : setTable)
        saveMarkovEntry(w, e.tag, e.lruStamp, e.valid, e.successors);

    // The unbounded STAB travels key-sorted: the map is hash-ordered,
    // the checkpoint must be byte-deterministic.
    std::vector<Addr> keys;
    keys.reserve(bigTable.size());
    for (const auto &kv : bigTable)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const Addr key : keys) {
        const Entry &e = bigTable.at(key);
        w.u32(key);
        saveMarkovEntry(w, e.tag, e.lruStamp, e.valid, e.successors);
    }
}

void
MarkovPrefetcher::loadState(snap::Reader &r)
{
    r.expectU64(entryCapacity, "Markov STAB capacity");
    r.expectU64(ways, "Markov STAB ways");
    r.expectU64(fanout, "Markov fan-out");
    r.expectU64(numSets, "Markov STAB sets");
    stamp = r.u64();
    prevMissLine = r.u32();
    havePrev = r.boolean();

    const auto loadEntry = [&](Entry &e) {
        e.tag = r.u32();
        e.lruStamp = r.u64();
        e.valid = r.boolean();
        const std::uint64_t nsucc = r.u64();
        if (nsucc > fanout)
            r.fail("Markov entry has " + std::to_string(nsucc) +
                   " successors, fan-out is " + std::to_string(fanout));
        e.successors.clear();
        for (std::uint64_t i = 0; i < nsucc; ++i)
            e.successors.push_back(r.u32());
    };

    r.expectU64(setTable.size(), "Markov bounded-STAB slots");
    for (Entry &e : setTable)
        loadEntry(e);

    const std::uint64_t nbig = r.u64();
    // A bounded STAB never consults the map, so no save fills it.
    if (entryCapacity != 0 && nbig != 0)
        r.fail("Markov unbounded-STAB entries: " + std::to_string(nbig) +
               " in a bounded STAB");
    bigTable.clear();
    Addr prevKey = 0;
    for (std::uint64_t i = 0; i < nbig; ++i) {
        const Addr key = r.u32();
        if (i > 0 && key <= prevKey)
            r.fail("Markov unbounded-STAB keys not strictly increasing");
        prevKey = key;
        Entry &e = bigTable[key];
        loadEntry(e);
        if (e.tag != key)
            r.fail("Markov unbounded-STAB entry tag " +
                   std::to_string(e.tag) + " differs from its key " +
                   std::to_string(key));
    }
}

} // namespace cdp
