/** @file
 * Differential property tests for the SIMD scanLine kernels: on every
 * reachable VAM configuration and every dispatch level this host
 * supports, scanLine must return exactly what the scalar reference
 * loop returns — same candidates, same values, same order. The SIMD
 * kernels are pure optimizations; any divergence is a bug here, not a
 * tuning question.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "core/vam.hh"

using namespace cdp;

namespace
{

/** Dispatch levels beyond Scalar that this build + host can run. */
std::vector<VamSimdLevel>
simdLevels()
{
    std::vector<VamSimdLevel> levels;
    const VamSimdLevel best = Vam::detectSimdLevel();
    if (best == VamSimdLevel::Scalar)
        return levels; // CDP_SIMD=OFF build or non-x86-64 host
    levels.push_back(VamSimdLevel::Sse2);
    if (best == VamSimdLevel::Avx2)
        levels.push_back(VamSimdLevel::Avx2);
    return levels;
}

void
expectLineAgrees(Vam &vam, const std::uint8_t *line, Addr ea)
{
    const VamHits ref = vam.scanLineScalar(line, ea);
    for (const VamSimdLevel l : simdLevels()) {
        vam.forceSimdLevel(l);
        EXPECT_EQ(vam.scanLine(line, ea), ref)
            << "level=" << static_cast<int>(l) << " ea=" << ea;
    }
}

/** A word that passes/fails specific VAM checks, for seeding lines. */
std::uint32_t
boundaryWord(const VamConfig &cfg, unsigned kind, Addr ea)
{
    const unsigned cshift = 32 - cfg.compareBits;
    const std::uint32_t top = cshift < 32
                                  ? static_cast<std::uint32_t>(ea) >> cshift
                                  : 0;
    switch (kind % 8) {
      case 0: return 0;                      // all-zero region, filter 0
      case 1: return ~std::uint32_t{0};      // all-one region, filter 1s
      case 2: return cshift < 32 ? top << cshift : 0; // exact EA match
      case 3: return (cshift < 32 ? top << cshift : 0) | 1; // misaligned?
      case 4: return 1;                      // tiny positive integer
      case 5: return static_cast<std::uint32_t>(-2); // tiny negative
      case 6: return (cshift < 32 ? top << cshift : 0) |
                     (1u << (cfg.alignBits ? cfg.alignBits : 1)); // aligned body bit
      default: return static_cast<std::uint32_t>(ea); // the EA itself
    }
}

} // namespace

TEST(VamSimd, ForcingAnUnsupportedLevelThrows)
{
    Vam vam;
    if (Vam::detectSimdLevel() == VamSimdLevel::Scalar) {
        EXPECT_THROW(vam.forceSimdLevel(VamSimdLevel::Sse2),
                     std::invalid_argument);
        return;
    }
    if (Vam::detectSimdLevel() == VamSimdLevel::Sse2) {
        EXPECT_THROW(vam.forceSimdLevel(VamSimdLevel::Avx2),
                     std::invalid_argument);
    }
    // Forcing at or below the detected level is always legal.
    vam.forceSimdLevel(VamSimdLevel::Scalar);
    vam.forceSimdLevel(VamSimdLevel::Sse2);
}

TEST(VamSimd, ConstructionPicksTheDetectedLevel)
{
    Vam vam;
    EXPECT_EQ(vam.simdLevel(), Vam::detectSimdLevel());
}

/**
 * The full configuration lattice: every compareBits, the reachable
 * filterBits for it, align/step variants — randomized line contents.
 * This sweeps far beyond the configs the simulator can reach so the
 * kernels stay correct for whatever Figure 7/8-style sweeps come.
 */
TEST(VamSimd, ScalarAndSimdAgreeAcrossTheConfigLattice)
{
    if (simdLevels().empty())
        GTEST_SKIP() << "scalar-only build (CDP_SIMD=OFF)";

    Rng rng(20260809);
    alignas(32) std::uint8_t line[lineBytes];
    const unsigned steps[] = {1, 2, 4};

    for (unsigned cb = 1; cb < 32; ++cb) {
        const unsigned maxFb = std::min(8u, 32 - cb);
        for (unsigned fb = 0; fb <= maxFb; ++fb) {
            for (unsigned ab = 0; ab <= 4; ab += 2) {
                VamConfig cfg;
                cfg.compareBits = cb;
                cfg.filterBits = fb;
                cfg.alignBits = ab;
                cfg.scanStep = steps[(cb + fb + ab) % 3];
                Vam vam(cfg);

                for (unsigned i = 0; i < lineBytes; ++i)
                    line[i] = static_cast<std::uint8_t>(rng.below(256));
                const Addr ea =
                    static_cast<Addr>(rng.below(~std::uint32_t{0}));
                expectLineAgrees(vam, line, ea);
            }
        }
    }
}

/**
 * Exhaustive boundary enumeration: every word slot of the line, in
 * turn, holds each crafted boundary word (region edges, alignment
 * edges, exact compare matches) while the rest of the line is noise.
 * These are exactly the words where a lane predicate that is off by
 * one bit would still pass random testing.
 */
TEST(VamSimd, BoundaryWordsAgreeAtEveryLineOffset)
{
    if (simdLevels().empty())
        GTEST_SKIP() << "scalar-only build (CDP_SIMD=OFF)";

    Rng rng(42);
    alignas(32) std::uint8_t line[lineBytes];

    const VamConfig configs[] = {
        {},                 // the paper's 8.4.1.2
        {1, 0, 0, 1},       // minimal compare, no filter, byte scan
        {31, 1, 4, 4},      // maximal compare field
        {24, 8, 2, 2},      // wide filter field
        {16, 0, 0, 1},      // region checks degenerate (filterBits=0)
    };
    const Addr eas[] = {0x0000'0000u, 0x0000'1000u, 0x7fff'fff0u,
                        0x8000'0000u, 0xffff'ffccu, 0x1234'5678u};

    for (const VamConfig &cfg : configs) {
        Vam vam(cfg);
        for (const Addr ea : eas) {
            for (unsigned i = 0; i < lineBytes; ++i)
                line[i] = static_cast<std::uint8_t>(rng.below(256));
            // Place every boundary kind at every word offset; one
            // scan checks 16 planted words at once.
            for (unsigned kind = 0; kind < 8; ++kind) {
                for (unsigned off = 0; off + wordBytes <= lineBytes;
                     off += wordBytes) {
                    const std::uint32_t w =
                        boundaryWord(cfg, kind + off / wordBytes, ea);
                    std::memcpy(line + off, &w, wordBytes);
                }
                expectLineAgrees(vam, line, ea);
            }
        }
    }
}

/**
 * Unaligned trigger EAs and stepped scans: scanStep 1 and 2 examine
 * words at offsets the SIMD kernels cover with shifted loads; make
 * sure no residue lane is dropped or double-counted.
 */
TEST(VamSimd, SteppedScansCoverEveryResidue)
{
    if (simdLevels().empty())
        GTEST_SKIP() << "scalar-only build (CDP_SIMD=OFF)";

    Rng rng(7);
    alignas(32) std::uint8_t line[lineBytes];
    for (const unsigned step : {1u, 2u, 4u}) {
        VamConfig cfg;
        cfg.scanStep = step;
        Vam vam(cfg);
        for (unsigned trial = 0; trial < 200; ++trial) {
            // Half the trials: bias the line toward the EA's region
            // so candidates are dense, not vanishingly rare.
            const Addr ea = static_cast<Addr>(rng.below(~std::uint32_t{0}));
            for (unsigned off = 0; off + wordBytes <= lineBytes;
                 off += wordBytes) {
                std::uint32_t w =
                    static_cast<std::uint32_t>(rng.below(~std::uint32_t{0}));
                if (trial % 2 == 0)
                    w = (w & 0x00ff'fffeu) | (ea & 0xff00'0000u);
                std::memcpy(line + off, &w, wordBytes);
            }
            expectLineAgrees(vam, line, ea);
        }
    }
}
