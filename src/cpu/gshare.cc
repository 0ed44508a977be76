#include "cpu/gshare.hh"

#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

Gshare::Gshare(unsigned entries, StatGroup *stats, const std::string &name)
    : mask(entries - 1), pht(entries, 1),
      lookups(stats ? *stats : dummyGroup, name + ".lookups",
              "branch predictions made"),
      mispredicts(stats ? *stats : dummyGroup, name + ".mispredicts",
                  "branches mispredicted")
{
    if (const std::string e = geometryError(entries); !e.empty())
        throw std::invalid_argument("Gshare: " + e);
}

std::string
Gshare::geometryError(unsigned entries, const char *entries_name)
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        return std::string(entries_name) + " must be a power of two";
    return "";
}

bool
Gshare::predict(Addr pc) const
{
    return pht[index(pc)] >= 2;
}

bool
Gshare::update(Addr pc, bool taken)
{
    ++lookups;
    const unsigned idx = index(pc);
    const bool predicted = pht[idx] >= 2;

    std::uint8_t &ctr = pht[idx];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    history = (history << 1) | (taken ? 1u : 0u);

    const bool correct = predicted == taken;
    if (!correct)
        ++mispredicts;
    return correct;
}

void
Gshare::saveState(snap::Writer &w) const
{
    w.u64(pht.size());
    w.u32(history);
    w.bytes(pht.data(), pht.size());
}

void
Gshare::loadState(snap::Reader &r)
{
    r.expectU64(pht.size(), "branch-predictor PHT entries");
    history = r.u32();
    r.bytes(pht.data(), pht.size());
    for (const std::uint8_t ctr : pht) {
        if (ctr > 3)
            r.fail("branch-predictor counter " + std::to_string(ctr) +
                   " exceeds the 2-bit range");
    }
}

} // namespace cdp
