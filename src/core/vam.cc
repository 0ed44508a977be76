#include "core/vam.hh"

#include <cstring>
#include <stdexcept>

namespace cdp
{

std::string
VamConfig::label() const
{
    return std::to_string(compareBits) + "." + std::to_string(filterBits) +
           "." + std::to_string(alignBits) + "." + std::to_string(scanStep);
}

std::string
Vam::configError(const VamConfig &cfg, const char *compare_name,
                 const char *filter_name)
{
    if (cfg.compareBits == 0 || cfg.compareBits > 31)
        return std::string(compare_name) + " must be in [1,31]";
    if (cfg.compareBits + cfg.filterBits > 32)
        return std::string(compare_name) + " + " + filter_name +
               " exceed 32 bits";
    if (cfg.alignBits > 4)
        return "alignBits must be <= 4";
    if (cfg.scanStep == 0 || cfg.scanStep > lineBytes - wordBytes)
        return "bad scanStep";
    return "";
}

Vam::Vam(const VamConfig &cfg) : cfg(cfg)
{
    if (const std::string e = configError(cfg); !e.empty())
        throw std::invalid_argument("Vam: " + e);

    alignMask = (1u << cfg.alignBits) - 1;
    compareShift = 32 - cfg.compareBits;
    compareMax = (cfg.compareBits == 32)
                     ? 0xffffffffu
                     : ((1u << cfg.compareBits) - 1);
    filterShift = 32 - cfg.compareBits - cfg.filterBits;
    filterMask = cfg.filterBits ? ((1u << cfg.filterBits) - 1) : 0;
    level = detectSimdLevel();
}

void
Vam::forceSimdLevel(VamSimdLevel l)
{
    if (static_cast<int>(l) > static_cast<int>(detectSimdLevel()))
        throw std::invalid_argument(
            "Vam: requested SIMD level unsupported by this build/host");
    level = l;
}

VamVerdict
Vam::classify(std::uint32_t word, Addr trigger_ea) const
{
    if (word & alignMask)
        return VamVerdict::Misaligned;

    const std::uint32_t word_top = word >> compareShift;
    const std::uint32_t ea_top =
        static_cast<std::uint32_t>(trigger_ea) >> compareShift;

    if (word_top != ea_top)
        return VamVerdict::CompareMismatch;

    if (word_top == 0) {
        // All-zeros region: small positive values would "match" any
        // low effective address. Demand a non-zero bit among the
        // filter bits; zero filter bits means never predict here.
        const std::uint32_t filt = (word >> filterShift) & filterMask;
        if (filt == 0)
            return VamVerdict::FilteredZero;
    } else if (word_top == compareMax) {
        // All-ones region: small negative values. Demand a non-one
        // bit among the filter bits.
        const std::uint32_t filt = (word >> filterShift) & filterMask;
        if (filt == filterMask)
            return VamVerdict::FilteredOne;
    }

    return VamVerdict::Candidate;
}

std::vector<Addr>
Vam::scanLineScalar(const std::uint8_t *line, Addr trigger_ea) const
{
    std::vector<Addr> out;
    for (unsigned off = 0; off + wordBytes <= lineBytes;
         off += cfg.scanStep) {
        std::uint32_t word;
        std::memcpy(&word, line + off, wordBytes);
        if (isCandidate(word, trigger_ea))
            out.push_back(static_cast<Addr>(word));
    }
    return out;
}

std::vector<Addr>
Vam::scanLine(const std::uint8_t *line, Addr trigger_ea) const
{
    if (level == VamSimdLevel::Scalar)
        return scanLineScalar(line, trigger_ea);

    // The kernel classifies every word offset of the line at once;
    // walking the stepped offsets against the mask reproduces the
    // scalar path's output order and values exactly.
    const std::uint64_t mask = level == VamSimdLevel::Avx2
                                   ? candidateMaskAvx2(line, trigger_ea)
                                   : candidateMaskSse2(line, trigger_ea);
    std::vector<Addr> out;
    for (unsigned off = 0; off + wordBytes <= lineBytes;
         off += cfg.scanStep) {
        if ((mask >> off) & 1u) {
            std::uint32_t word;
            std::memcpy(&word, line + off, wordBytes);
            out.push_back(static_cast<Addr>(word));
        }
    }
    return out;
}

} // namespace cdp
