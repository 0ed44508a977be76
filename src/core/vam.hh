/**
 * @file
 * Virtual Address Matching (VAM) — the paper's pointer-recognition
 * heuristic (Section 3.3, Figures 2 and 5).
 *
 * An address-sized word in a freshly filled cache line is deemed a
 * *candidate virtual address* when:
 *
 *  1. its low @p alignBits bits are zero (compilers place pointers on
 *     2/4-byte boundaries);
 *  2. its upper @p compareBits match the upper bits of the effective
 *     address that triggered the fill (heap pointers share a base);
 *  3. in the two degenerate regions — upper bits all zeros or all
 *     ones — the next @p filterBits of the word must contain a
 *     non-zero (resp. non-one) bit, so that small positive or
 *     negative integers are not misread as stack/low-heap pointers.
 *
 * The line is scanned at @p scanStep-byte granularity; the paper's
 * chosen configuration is 8 compare bits, 4 filter bits, 1 align bit,
 * 2-byte scan step (written "8.4.1.2").
 */

#ifndef CDP_CORE_VAM_HH
#define CDP_CORE_VAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cdp
{

/** Tunable knobs of the VAM predictor (Figures 7 and 8). */
struct VamConfig
{
    unsigned compareBits = 8; //!< upper bits matched against the EA
    unsigned filterBits = 4;  //!< bits inspected in the all-0/all-1 regions
    unsigned alignBits = 1;   //!< low bits that must be zero
    unsigned scanStep = 2;    //!< bytes stepped between examined words

    /** "8.4.1.2"-style label used in the paper's figures. */
    std::string label() const;

    bool operator==(const VamConfig &) const = default;
};

/** Why a word was accepted or rejected (tests and tuning stats). */
enum class VamVerdict
{
    Candidate,       //!< passed every check
    Misaligned,      //!< low align bits non-zero
    CompareMismatch, //!< upper bits differ from the trigger EA
    FilteredZero,    //!< all-zero region, filter bits all zero
    FilteredOne,     //!< all-one region, filter bits all one
};

/**
 * Dispatch level of the scanLine kernel. The paper's VAM is
 * branch-free hardware operating on all words of a line at once
 * (Figure 5), which maps directly onto SIMD lanes; the kernels are
 * bit-exact with the scalar reference (tests/test_vam_simd.cc) and
 * selected per Vam instance at construction — never through mutable
 * global state.
 */
enum class VamSimdLevel
{
    Scalar, //!< portable reference loop (also the CDP_SIMD=OFF build)
    Sse2,   //!< 4-lane kernel (x86-64 baseline)
    Avx2,   //!< 8-lane kernel (runtime-detected)
};

/**
 * The VAM predictor. Stateless by construction — the entire paper's
 * premise — so the class holds only its configuration.
 */
class Vam
{
  public:
    explicit Vam(const VamConfig &cfg = VamConfig{});

    /** The constructor's rules, naming the compare and filter widths
     *  @p compare_name and @p filter_name; empty when valid. */
    static std::string configError(const VamConfig &cfg,
                                   const char *compare_name = "compareBits",
                                   const char *filter_name = "filterBits");

    /** Full classification of one word against a trigger EA. */
    VamVerdict classify(std::uint32_t word, Addr trigger_ea) const;

    /** Shorthand: classify(...) == Candidate. */
    bool isCandidate(std::uint32_t word, Addr trigger_ea) const
    {
        return classify(word, trigger_ea) == VamVerdict::Candidate;
    }

    /**
     * Scan one cache line for candidate virtual addresses.
     * @param line lineBytes bytes of fill data
     * @param trigger_ea virtual effective address of the request that
     *        caused the fill
     * @return the candidate pointer values found, in scan order
     */
    std::vector<Addr> scanLine(const std::uint8_t *line,
                               Addr trigger_ea) const;

    /**
     * The portable reference implementation of scanLine (the scalar
     * word loop). Public so the SIMD differential property tests can
     * compare every dispatch level against it.
     */
    std::vector<Addr> scanLineScalar(const std::uint8_t *line,
                                     Addr trigger_ea) const;

    /**
     * Highest dispatch level this build + host supports: Scalar when
     * the build disables CDP_SIMD (or targets a non-x86-64 machine),
     * else Sse2, else Avx2 when the CPU advertises it.
     */
    static VamSimdLevel detectSimdLevel();

    /** The level this instance dispatches scanLine through. */
    VamSimdLevel simdLevel() const { return level; }

    /**
     * Test hook: pin the dispatch level. Levels above
     * detectSimdLevel() throw std::invalid_argument (the kernel
     * would fault on an unsupporting host).
     */
    void forceSimdLevel(VamSimdLevel l);

    const VamConfig &config() const { return cfg; }

    /** Words examined per line at the configured scan step. */
    unsigned wordsPerLine() const
    {
        return (lineBytes - wordBytes) / cfg.scanStep + 1;
    }

  private:
    /**
     * Bit @c off set = the word at byte offset @c off of @p line is a
     * VAM candidate, for every off in [0, lineBytes - wordBytes].
     * SIMD kernels (src/core/vam_simd.cc); bits above that range are
     * unspecified and never read.
     */
    std::uint64_t candidateMaskSse2(const std::uint8_t *line,
                                    Addr trigger_ea) const;
    std::uint64_t candidateMaskAvx2(const std::uint8_t *line,
                                    Addr trigger_ea) const;

    VamConfig cfg;
    std::uint32_t alignMask;   //!< low bits that must be zero
    unsigned compareShift;     //!< 32 - compareBits
    std::uint32_t compareMax;  //!< all-ones value of the compare field
    unsigned filterShift;      //!< 32 - compareBits - filterBits
    std::uint32_t filterMask;  //!< mask of the filter field
    VamSimdLevel level;        //!< per-instance scanLine dispatch
};

} // namespace cdp

#endif // CDP_CORE_VAM_HH
