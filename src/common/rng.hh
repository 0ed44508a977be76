/**
 * @file
 * A small, fast, deterministic random number generator used by the
 * workload generators and directed testers.
 *
 * The simulator must be bit-for-bit reproducible across runs so that
 * paired baseline/prefetcher experiments see identical uop streams;
 * std::mt19937_64 would work but is heavyweight to copy around, so a
 * splitmix64/xoshiro-style generator is used instead.
 */

#ifndef CDP_COMMON_RNG_HH
#define CDP_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace cdp
{

/**
 * xorshift128+ generator seeded through splitmix64. Deterministic,
 * copyable, and cheap enough to embed in every workload generator.
 */
class Rng
{
  public:
    /** Construct with a seed; equal seeds give equal sequences. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 to spread a possibly low-entropy seed.
        auto next = [&seed]() {
            seed += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            return z ^ (z >> 31);
        };
        s0 = next();
        s1 = next();
        if (s0 == 0 && s1 == 0)
            s1 = 1;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next64()
    {
        std::uint64_t x = s0;
        const std::uint64_t y = s1;
        s0 = y;
        x ^= x << 23;
        s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1 + y;
    }

    /** Next 32-bit value. */
    std::uint32_t next32() { return static_cast<std::uint32_t>(next64() >> 32); }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next64() % bound;
    }

    /**
     * A bound fixed at construction, with its reciprocal
     * M = floor((2^64 - 1) / d). For any x, q = mulhi(x, M) is
     * floor(x / d) or one less: writing 2^64 - 1 = M d + rho with
     * rho < d, x M / 2^64 = x / d - x (1 + rho) / (d 2^64), and the
     * subtracted term is below 1 because x < 2^64 and 1 + rho <= d.
     * So x - q d lies in [0, 2d) and never exceeds x, and one
     * conditional subtract gives x % d exactly.
     */
    class Divisor
    {
      public:
        /** @p d must be non-zero. */
        explicit Divisor(std::uint64_t d) : d(d), m(~std::uint64_t{0} / d)
        {
        }

        /** x % d without a divide. */
        std::uint64_t
        mod(std::uint64_t x) const
        {
            const auto q = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(x) * m) >> 64);
            const std::uint64_t r = x - q * d;
            return r - (r >= d ? d : 0);
        }

      private:
        std::uint64_t d;
        std::uint64_t m;
    };

    /** below(d) for a precomputed bound: the same value, no divide. */
    std::uint64_t below(const Divisor &d) { return d.mod(next64()); }

    /**
     * A Bernoulli probability as an integer threshold on the draw's
     * top 53 bits. unit(x) = k 2^-53 with k = x >> 11 exact, and
     * p 2^53 is exact for p in [0, 1], so unit(x) < p iff
     * k < p 2^53 iff k < ceil(p 2^53). p <= 0 and NaN never hit;
     * p >= 1 always does.
     */
    class Threshold
    {
      public:
        explicit Threshold(double p)
            : t(!(p > 0.0) ? 0
                : p >= 1.0 ? std::uint64_t{1} << 53
                           : static_cast<std::uint64_t>(
                                 std::ceil(p * 0x1.0p53)))
        {
        }

        /** unit(x) < p, branch-free. */
        bool hit(std::uint64_t x) const { return (x >> 11) < t; }

      private:
        std::uint64_t t;
    };

    /** chance(p) for a precomputed p: the same outcome, no FP. */
    bool chance(const Threshold &p) { return p.hit(next64()); }

    /** Uniform double in [0, 1). */
    double uniform() { return unit(next64()); }

    /** The uniform() value of raw draw @p x. */
    static double
    unit(std::uint64_t x)
    {
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    /**
     * Bernoulli trial with probability p. chance(0.5) is true exactly
     * when the draw's top bit is 0: unit() is exact, and it is below
     * 0.5 iff x >> 11 is below 2^52.
     */
    bool chance(double p) { return uniform() < p; }

    /** Export the raw state words (checkpointing). */
    void
    getState(std::uint64_t &out_s0, std::uint64_t &out_s1) const
    {
        out_s0 = s0;
        out_s1 = s1;
    }

    /**
     * Restore a state captured with getState(). The all-zero state is
     * a fixed point of xorshift128+, so it is nudged exactly as the
     * constructor does.
     */
    void
    setState(std::uint64_t new_s0, std::uint64_t new_s1)
    {
        s0 = new_s0;
        s1 = new_s1;
        if (s0 == 0 && s1 == 0)
            s1 = 1;
    }

  private:
    std::uint64_t s0;
    std::uint64_t s1;
};

} // namespace cdp

#endif // CDP_COMMON_RNG_HH
