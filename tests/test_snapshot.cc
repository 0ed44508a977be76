/** @file
 * Checkpoint/restore round trips (DESIGN.md §11).
 *
 * The headline property is differential equivalence: running
 * A (warm-up) → quiesce → B (measure) straight through must be
 * byte-identical — counters, cycles, and full stats dump — to running
 * A, checkpointing, restoring into a fresh machine, and running B
 * there. The directed tests below pin that property on machines with
 * specific state populated (empty, warmed caches with depth tags, a
 * trained Markov STAB, an adaptive controller mid-epoch), and the
 * failure-path tests pin that damaged inputs die loudly with a
 * diagnostic instead of undefined behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "snapshot/ckpt_io.hh"

using namespace cdp;

namespace
{

std::string
dumpStats(Simulator &sim)
{
    std::ostringstream os;
    sim.stats().dump(os);
    return os.str();
}

/** Warm → quiesce → checkpoint; returns the serialized bytes. */
std::string
checkpointAfterWarmup(Simulator &sim, std::uint64_t warm_uops)
{
    sim.warmup(warm_uops);
    sim.quiesce();
    std::ostringstream os;
    sim.saveCheckpoint(os);
    return os.str();
}

/** Little-endian value of @p n bytes of @p s at @p pos. */
std::uint64_t
loadLe(const std::string &s, std::size_t pos, unsigned n)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(s[pos + i]))
             << (8 * i);
    return v;
}

/** Where a section of a checkpoint's bytes lies. */
struct SectionFrame
{
    std::size_t tag = 0;            //!< offset of the 4-byte tag
    std::vector<std::size_t> chunks; //!< offsets of the chunk lengths
    std::size_t closing = 0;        //!< offset of the zero length
};

/** The framing of section @p tag, walked from the 12-byte header;
 *  fails the test when @p ckpt has no such section. */
SectionFrame
findSection(const std::string &ckpt, const char *tag)
{
    std::size_t pos = 12;
    while (pos + 8 <= ckpt.size()) {
        SectionFrame f;
        f.tag = pos;
        pos += 4;
        for (std::uint64_t len; pos + 4 <= ckpt.size() &&
                                (len = loadLe(ckpt, pos, 4)) != 0;
             pos += 4 + len + 8)
            f.chunks.push_back(pos);
        f.closing = pos;
        pos += 4;
        if (ckpt.compare(f.tag, 4, tag) == 0)
            return f;
    }
    ADD_FAILURE() << "no section " << tag;
    return {};
}

/** @p ckpt with the u32 chunk length at @p at set to @p len. */
std::string
withChunkLength(std::string ckpt, std::size_t at, std::uint32_t len)
{
    for (unsigned i = 0; i < 4; ++i)
        ckpt[at + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    return ckpt;
}

/**
 * An input stream buffer over a string that counts what it hands
 * out. It keeps no get area, so every read the checkpoint Reader
 * makes goes through xsgetn and is counted.
 */
class CountingSource : public std::streambuf
{
  public:
    explicit CountingSource(std::string bytes) : data(std::move(bytes)) {}

    std::size_t pulled() const { return at; }
    std::size_t largestRead() const { return largest; }

  protected:
    std::streamsize
    xsgetn(char *s, std::streamsize n) override
    {
        largest = std::max(largest, static_cast<std::size_t>(n));
        const std::size_t k =
            std::min(static_cast<std::size_t>(n), data.size() - at);
        std::memcpy(s, data.data() + at, k);
        at += k;
        return static_cast<std::streamsize>(k);
    }

    int_type
    underflow() override
    {
        return at < data.size() ? traits_type::to_int_type(data[at])
                                : traits_type::eof();
    }

    int_type
    uflow() override
    {
        return at < data.size() ? traits_type::to_int_type(data[at++])
                                : traits_type::eof();
    }

  private:
    std::string data;
    std::size_t at = 0;
    std::size_t largest = 0;
};

/** An output stream buffer that only counts what is written to it. */
class CountingSink : public std::streambuf
{
  public:
    std::size_t emitted() const { return total; }
    std::size_t largestWrite() const { return largest; }

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        total += static_cast<std::size_t>(n);
        largest = std::max(largest, static_cast<std::size_t>(n));
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        ++total;
        return c;
    }

  private:
    std::size_t total = 0;
    std::size_t largest = 0;
};

/**
 * The differential harness: straight run vs checkpoint + restore into
 * a fresh machine must agree on everything observable.
 */
void
expectDifferentialEquivalence(const SimConfig &cfg,
                              std::uint64_t warm_uops,
                              std::uint64_t measure_uops)
{
    Simulator straight(cfg);
    const std::string bytes = checkpointAfterWarmup(straight, warm_uops);
    const std::string preDumpStraight = dumpStats(straight);

    Simulator forked(cfg);
    std::istringstream is(bytes);
    forked.restoreCheckpoint(is);

    // Restored machine is indistinguishable before measuring...
    EXPECT_EQ(preDumpStraight, dumpStats(forked));
    EXPECT_EQ(straight.core().currentCycle(),
              forked.core().currentCycle());

    // ...and stays indistinguishable through the measured phase.
    const RunResult rs = straight.measure(measure_uops);
    const RunResult rf = forked.measure(measure_uops);
    EXPECT_EQ(rs.cycles, rf.cycles);
    EXPECT_EQ(rs.uops, rf.uops);
    EXPECT_EQ(rs.mem.l2DemandMisses, rf.mem.l2DemandMisses);
    EXPECT_EQ(rs.mem.cdpIssued, rf.mem.cdpIssued);
    EXPECT_EQ(rs.mem.cdpUseful, rf.mem.cdpUseful);
    EXPECT_EQ(rs.mem.rescans, rf.mem.rescans);
    EXPECT_EQ(rs.mem.promotions, rf.mem.promotions);
    EXPECT_EQ(dumpStats(straight), dumpStats(forked));
}

} // namespace

TEST(SnapshotRoundTrip, EmptyMachine)
{
    SimConfig c;
    c.workload = "specjbb-vsnet";
    expectDifferentialEquivalence(c, /*warm=*/0, /*measure=*/20'000);
}

TEST(SnapshotRoundTrip, FetchBufferPartlyConsumed)
{
    // A warm-up that is no multiple of the fetch batch leaves fetched
    // but unissued uops in the core; the CORE section carries them
    // (format 4), so the restored run is byte-identical.
    SimConfig c;
    c.workload = "specjbb-vsnet";
    constexpr std::uint64_t warm = 20'011;
    {
        Simulator probe(c);
        probe.warmup(warm);
        probe.quiesce();
        ASSERT_GT(probe.core().fetchBuffered(), 0u);
        ASSERT_LT(probe.core().fetchBuffered(), OooCore::fetchBatch);
    }
    expectDifferentialEquivalence(c, warm, /*measure=*/30'000);
}

TEST(SnapshotRoundTrip, WarmedCachesWithDepthTags)
{
    SimConfig c;
    c.workload = "specjbb-vsnet";
    c.cdp.depthThreshold = 4; // deeper chains -> richer depth tags
    c.cdp.reinforce = true;
    expectDifferentialEquivalence(c, /*warm=*/60'000,
                                  /*measure=*/40'000);
}

TEST(SnapshotRoundTrip, MarkovTablesPopulated)
{
    SimConfig c;
    c.workload = "tpcc-2";
    c.markov.enabled = true;
    c.markov.stabBytes = 0; // unbounded STAB: the key-sorted big table
    expectDifferentialEquivalence(c, /*warm=*/50'000,
                                  /*measure=*/30'000);

    SimConfig bounded = c;
    bounded.markov.stabBytes = 64 * 1024; // set-associative STAB
    expectDifferentialEquivalence(bounded, /*warm=*/50'000,
                                  /*measure=*/30'000);
}

TEST(SnapshotRoundTrip, AdaptiveControllerMidEpoch)
{
    SimConfig c;
    c.workload = "xbtree";
    c.adaptive.enabled = true;
    c.adaptive.epochPrefetches = 256; // several epochs during warm-up
    expectDifferentialEquivalence(c, /*warm=*/80'000,
                                  /*measure=*/40'000);
}

TEST(SnapshotRoundTrip, WarmForkAppliesSweepOverride)
{
    // One warm checkpoint forked into a different cdp configuration:
    // the sweep knobs must win over the checkpointed live config, and
    // two forks of the same checkpoint must agree with each other.
    SimConfig base;
    base.workload = "xgraph";
    base.cdp.depthThreshold = 3;

    Simulator warm(base);
    const std::string bytes = checkpointAfterWarmup(warm, 50'000);

    SimConfig swept = base;
    swept.cdp.depthThreshold = 5;
    swept.cdp.nextLines = 1;

    Simulator forkA(swept), forkB(swept);
    std::istringstream isA(bytes), isB(bytes);
    forkA.restoreCheckpoint(isA);
    forkB.restoreCheckpoint(isB);
    EXPECT_EQ(forkA.memory().contentPf().config().depthThreshold, 5u);
    EXPECT_EQ(forkA.memory().contentPf().config().nextLines, 1u);

    const RunResult ra = forkA.measure(40'000);
    const RunResult rb = forkB.measure(40'000);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.mem.cdpIssued, rb.mem.cdpIssued);
    EXPECT_EQ(dumpStats(forkA), dumpStats(forkB));

    // And the fork is exactly equivalent to a straight run that
    // switches the cdp configuration at the quiesce point — the
    // semantics a warm-fork sweep relies on (warm-up happened under
    // the base config on both legs; only the measured phase differs).
    Simulator straight(base);
    straight.warmup(50'000);
    straight.quiesce();
    straight.memory().reconfigureCdp(swept.cdp);
    const RunResult rc = straight.measure(40'000);
    EXPECT_EQ(ra.cycles, rc.cycles);
    EXPECT_EQ(dumpStats(forkA), dumpStats(straight));
}

TEST(SnapshotRoundTrip, RestoredMachineCanCheckpointAgain)
{
    // Chained checkpoints: warm → ckpt1 → run → ckpt2 on the straight
    // machine must equal ckpt1 → restore → run → ckpt2' bytes.
    SimConfig c;
    c.workload = "speech";
    Simulator straight(c);
    const std::string first = checkpointAfterWarmup(straight, 40'000);

    Simulator forked(c);
    std::istringstream is(first);
    forked.restoreCheckpoint(is);

    straight.warmup(20'000);
    straight.quiesce();
    forked.warmup(20'000);
    forked.quiesce();

    std::ostringstream a, b;
    straight.saveCheckpoint(a);
    forked.saveCheckpoint(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(SnapshotFailure, CheckpointRequiresQuiescedMachine)
{
    SimConfig c;
    c.workload = "specjbb-vsnet";
    Simulator sim(c);
    sim.warmup(5'000);
    // Put a fill in flight deliberately: a demand load to a mapped
    // line that cannot be in any cache yet.
    const Addr va = sim.heap().heapBase();
    sim.memory().load(/*pc=*/0x1000, va, sim.core().currentCycle(),
                      false);
    std::ostringstream os;
    EXPECT_THROW(sim.saveCheckpoint(os), snap::SnapshotError);
    try {
        sim.saveCheckpoint(os);
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("quiesce"),
                  std::string::npos)
            << e.what();
    }
    // After a drain the same machine checkpoints fine.
    sim.quiesce();
    std::ostringstream ok;
    EXPECT_NO_THROW(sim.saveCheckpoint(ok));
}

class SnapshotCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SimConfig c;
        c.workload = "specjbb-vsnet";
        Simulator sim(c);
        bytes = checkpointAfterWarmup(sim, 20'000);
        ASSERT_GT(bytes.size(), 64u);
    }

    /** Restore @p data into a fresh default machine; return what() or
     *  empty when no exception fired. */
    std::string
    restoreError(const std::string &data)
    {
        SimConfig c;
        c.workload = "specjbb-vsnet";
        Simulator sim(c);
        std::istringstream is(data);
        try {
            sim.restoreCheckpoint(is);
        } catch (const snap::SnapshotError &e) {
            return e.what();
        }
        return "";
    }

    std::string bytes;
};

TEST_F(SnapshotCorruption, TruncatedHeaderFailsLoudly)
{
    const std::string err = restoreError(bytes.substr(0, 6));
    EXPECT_NE(err.find("truncated checkpoint"), std::string::npos)
        << err;
}

TEST_F(SnapshotCorruption, TruncatedSectionFailsLoudly)
{
    // Cut inside the first section's payload.
    const std::string err = restoreError(bytes.substr(0, 64));
    EXPECT_NE(err.find("truncated checkpoint"), std::string::npos)
        << err;
    EXPECT_NE(err.find("CFG!"), std::string::npos) << err;
}

TEST_F(SnapshotCorruption, TruncatedMidFileNamesTheSection)
{
    const std::string err =
        restoreError(bytes.substr(0, bytes.size() / 2));
    EXPECT_NE(err.find("truncated checkpoint"), std::string::npos)
        << err;
}

TEST_F(SnapshotCorruption, BitFlipFailsTheSectionChecksum)
{
    std::string damaged = bytes;
    damaged[40] = static_cast<char>(damaged[40] ^ 0x01);
    const std::string err = restoreError(damaged);
    EXPECT_NE(err.find("corrupted checkpoint"), std::string::npos)
        << err;
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST_F(SnapshotCorruption, BadMagicIsRejected)
{
    std::string damaged = bytes;
    damaged[0] = 'X';
    const std::string err = restoreError(damaged);
    EXPECT_NE(err.find("not a CDP checkpoint"), std::string::npos)
        << err;
}

TEST_F(SnapshotCorruption, VersionSkewIsRejectedWithBothVersions)
{
    std::string damaged = bytes;
    damaged[8] = 99; // formatVersion lives right after the magic
    const std::string err = restoreError(damaged);
    EXPECT_NE(err.find("version skew"), std::string::npos) << err;
    EXPECT_NE(err.find("99"), std::string::npos) << err;
    EXPECT_NE(err.find("version " +
                       std::to_string(snap::formatVersion)),
              std::string::npos)
        << err;
}

TEST_F(SnapshotCorruption, FormatNineFileIsRejected)
{
    // Format 9 followed STOR with FRAM, PGTB and HEAP; format 10 drops
    // them and adds the heap top to STOR, so a format-9 file fails the
    // version check instead of being refused at STOR's length.
    ASSERT_EQ(snap::formatVersion, 10u);
    std::string old = bytes;
    old[8] = 9; // little-endian u32 right after the magic
    const std::string err = restoreError(old);
    EXPECT_NE(err.find("version skew"), std::string::npos) << err;
    EXPECT_NE(err.find("file has version 9"), std::string::npos) << err;
    EXPECT_NE(err.find("reads version 10"), std::string::npos) << err;
}

TEST_F(SnapshotCorruption, ChunkLengthOverTheLimitIsRefusedBeforeAnyRead)
{
    // 2^32 - 1: refused as soon as the length is read, so nothing is
    // read, let alone allocated, on the strength of it.
    const SectionFrame cfg = findSection(bytes, "CFG!");
    ASSERT_FALSE(cfg.chunks.empty());
    const std::size_t at = cfg.chunks[0];
    CountingSource src(withChunkLength(bytes, at, 0xffffffffu));
    std::istream is(&src);
    snap::Reader r(is);
    try {
        r.enterSection("CFG!");
        FAIL() << "a 4 GiB chunk length was accepted";
    } catch (const snap::SnapshotError &e) {
        const std::string err = e.what();
        EXPECT_NE(err.find("corrupted checkpoint: section 'CFG!'"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("claims 4294967295 bytes, more than the "
                           "65536-byte limit"),
                  std::string::npos)
            << err;
    }
    EXPECT_EQ(src.pulled(), at + 4);
}

TEST_F(SnapshotCorruption, HugeSectionLengthIsTruncationNotBadAlloc)
{
    // The largest accepted chunk length in a stream that holds far
    // less: the read stops at the stream's end and fails as a
    // truncation naming the section, having asked for one chunk.
    const SectionFrame cfg = findSection(bytes, "CFG!");
    ASSERT_FALSE(cfg.chunks.empty());
    const std::size_t at = cfg.chunks[0];
    CountingSource src(
        withChunkLength(bytes, at, snap::chunkBytes).substr(0, at + 104));
    std::istream is(&src);
    snap::Reader r(is);
    try {
        r.enterSection("CFG!");
        FAIL() << "a chunk longer than the stream was accepted";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "truncated checkpoint: section 'CFG!' chunk at "
                      "offset 0 promises 65536 bytes, stream has 100"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_LE(src.largestRead(), snap::chunkBytes + 8);
}

TEST_F(SnapshotCorruption, SectionLengthBeyondTheStreamIsTruncation)
{
    // STAT's last chunk claims a full chunk: the read runs past the
    // trailer into the end of the stream and fails naming STAT.
    const SectionFrame stat = findSection(bytes, "STAT");
    ASSERT_FALSE(stat.chunks.empty());
    const std::size_t at = stat.chunks.back();
    const std::size_t len = loadLe(bytes, at, 4);
    ASSERT_LT(len + 8 + 4 + 8, snap::chunkBytes);
    std::size_t start = 0;
    for (const std::size_t c : stat.chunks)
        start += c == at ? 0 : loadLe(bytes, c, 4);
    const std::string err =
        restoreError(withChunkLength(bytes, at, snap::chunkBytes));
    EXPECT_NE(err.find("truncated checkpoint: section 'STAT' chunk at "
                       "offset " +
                       std::to_string(start) + " promises 65536 bytes, "
                                               "stream has " +
                       std::to_string(bytes.size() - at - 4)),
              std::string::npos)
        << err;
}

TEST_F(SnapshotCorruption, FlippedByteInALaterChunkFailsItsChecksum)
{
    const SectionFrame msys = findSection(bytes, "MSYS");
    ASSERT_GE(msys.chunks.size(), 3u);
    std::string damaged = bytes;
    damaged[msys.chunks[2] + 4 + 1000] ^= 0x20;
    const std::string err = restoreError(damaged);
    EXPECT_NE(err.find("corrupted checkpoint: section 'MSYS' chunk at "
                       "offset " +
                       std::to_string(2 * snap::chunkBytes) +
                       " fails its checksum"),
              std::string::npos)
        << err;
}

TEST_F(SnapshotCorruption, WrongSectionTagIsRejected)
{
    std::string damaged = bytes;
    damaged[12] = 'Z'; // first byte of the "CFG!" tag
    const std::string err = restoreError(damaged);
    EXPECT_NE(err.find("section mismatch"), std::string::npos) << err;
}

TEST_F(SnapshotCorruption, GuardedConfigMismatchNamesTheKnob)
{
    SimConfig other;
    other.workload = "specjbb-vsnet";
    other.mem.l2Bytes = 512 * 1024; // geometry change: must refuse
    Simulator sim(other);
    std::istringstream is(bytes);
    try {
        sim.restoreCheckpoint(is);
        FAIL() << "geometry mismatch not detected";
    } catch (const snap::SnapshotError &e) {
        const std::string err = e.what();
        EXPECT_NE(err.find("mem.l2_kb"), std::string::npos) << err;
        EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
    }
}

TEST_F(SnapshotCorruption, WrongWorkloadNamesBothWorkloads)
{
    SimConfig other;
    other.workload = "tpcc-2";
    Simulator sim(other);
    std::istringstream is(bytes);
    try {
        sim.restoreCheckpoint(is);
        FAIL() << "workload mismatch not detected";
    } catch (const snap::SnapshotError &e) {
        const std::string err = e.what();
        EXPECT_NE(err.find("specjbb-vsnet"), std::string::npos) << err;
        EXPECT_NE(err.find("tpcc-2"), std::string::npos) << err;
    }
}

TEST(SnapshotChecksum, EveryBitFlipFailsTheChecksum)
{
    // Payloads of 0..100 bytes cover the four lanes, the words after
    // the last whole block and every tail length; 64 KiB - 1, 64 KiB
    // and 64 KiB + 1 cover a chunk one byte short of full, a full
    // chunk, and a full chunk followed by a one-byte chunk. A flipped
    // bit in a payload or a stored sum must fail that chunk's
    // checksum; a flipped bit in a chunk or closing length must fail
    // some way. Small payloads flip every bit; the large ones flip
    // every framing bit, every bit within 100 bytes of a chunk's ends
    // and a stride of the bits between.
    std::vector<std::size_t> sizes(101);
    std::iota(sizes.begin(), sizes.end(), 0);
    for (const std::size_t n :
         {snap::chunkBytes - 1, snap::chunkBytes, snap::chunkBytes + 1})
        sizes.push_back(n);
    for (const std::size_t n : sizes) {
        std::string payload(n, '\0');
        for (std::size_t i = 0; i < n; ++i)
            payload[i] = static_cast<char>(i * 37 + n);
        std::ostringstream os;
        snap::Writer w(os);
        w.beginSection("TEST");
        w.bytes(reinterpret_cast<const std::uint8_t *>(payload.data()), n);
        w.endSection();
        std::string damaged = os.str();

        // Which bytes are lengths, and which bytes a flip must trip
        // a sum on (payload and sum): walk the framing after the tag.
        std::vector<char> isLength(damaged.size(), 0);
        std::vector<char> nearEnd(damaged.size(), 0);
        std::size_t pos = 16;
        for (std::uint64_t len;; pos += 4 + len + 8) {
            ASSERT_LE(pos + 4, damaged.size());
            std::fill_n(isLength.begin() + pos, 4, 1);
            len = loadLe(damaged, pos, 4);
            if (len == 0)
                break;
            ASSERT_LE(len, snap::chunkBytes);
            for (std::size_t i = 0; i < len + 8; ++i)
                nearEnd[pos + 4 + i] = i < 100 || i + 100 >= len + 8;
        }
        ASSERT_EQ(pos + 4, damaged.size());
        ASSERT_EQ(damaged.size(),
                  16 + n + 12 * ((n + snap::chunkBytes - 1) /
                                 snap::chunkBytes) + 4);

        for (std::size_t bit = 16 * 8; bit < damaged.size() * 8; ++bit) {
            const std::size_t at = bit / 8;
            if (n > 100 && !isLength[at] && !nearEnd[at] && bit % 509)
                continue;
            const char mask = static_cast<char>(1 << (bit % 8));
            damaged[at] ^= mask;
            std::istringstream is(damaged);
            damaged[at] ^= mask;
            snap::Reader r(is);
            std::vector<std::uint8_t> back(n);
            try {
                r.enterSection("TEST");
                r.bytes(back.data(), n);
                r.leaveSection();
                ADD_FAILURE() << "flip of bit " << bit << " with a "
                              << n << "-byte payload went unnoticed";
            } catch (const snap::SnapshotError &e) {
                if (!isLength[at]) {
                    ASSERT_NE(std::string(e.what()).find(
                                  "fails its checksum"),
                              std::string::npos)
                        << "bit " << bit << ": " << e.what();
                }
            }
        }
    }
}

TEST(SnapshotChecksum, ValuesStraddlingAChunkBoundaryRoundTrip)
{
    // 65533 filler bytes leave three bytes of the first chunk: the
    // u64 after them is split 3 + 5 across the chunks.
    const std::string filler(snap::chunkBytes - 3, 'f');
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("TEST");
    w.bytes(reinterpret_cast<const std::uint8_t *>(filler.data()),
            filler.size());
    w.u64(0x0123456789abcdefull);
    w.str("straddle");
    w.f64(-2.5);
    w.boolean(true);
    w.endSection();
    w.finish();
    const std::string ckpt = os.str();
    const SectionFrame f = findSection(ckpt, "TEST");
    ASSERT_EQ(f.chunks.size(), 2u);
    EXPECT_EQ(loadLe(ckpt, f.chunks[0], 4), snap::chunkBytes);
    EXPECT_EQ(loadLe(ckpt, f.chunks[1], 4), 5u + 16u + 8u + 1u);

    std::istringstream is(ckpt);
    snap::Reader r(is);
    r.enterSection("TEST");
    std::string back(filler.size(), '\0');
    r.bytes(reinterpret_cast<std::uint8_t *>(back.data()), back.size());
    EXPECT_EQ(back, filler);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.str(), "straddle");
    EXPECT_EQ(r.f64(), -2.5);
    EXPECT_TRUE(r.boolean());
    r.leaveSection();
    r.finish();
}

TEST(SnapshotChecksum, HugeStringLengthIsExhaustionNotBadAlloc)
{
    // A string length of 2^62 in a verified chunk: the read grows the
    // string a chunk at a time and fails where the section ends.
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("TEST");
    w.u64(std::uint64_t{1} << 62);
    w.u64(7);
    w.endSection();
    std::istringstream is(os.str());
    snap::Reader r(is);
    r.enterSection("TEST");
    try {
        r.str();
        FAIL() << "a 2^62-byte string was read from 8 bytes";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "checkpoint section 'TEST' (offset 16): payload "
                      "exhausted"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotChecksum, NeitherSideHoldsMoreThanOneChunk)
{
    // Writer: over a megabyte of mixed values, no more than one chunk
    // of payload is ever staged unwritten, and no single write to the
    // stream is larger than a chunk.
    {
        CountingSink sink;
        std::ostream os(&sink);
        snap::Writer w(os);
        w.beginSection("TEST");
        const std::vector<std::uint8_t> block(1000, 0x5a);
        std::size_t written = 0;
        for (std::uint64_t i = 0; written < (std::size_t{1} << 20); ++i) {
            w.u64(i);
            w.bytes(block.data(), block.size());
            w.u32(static_cast<std::uint32_t>(i));
            written += 8 + block.size() + 4;
            // 16 bytes of header and tag precede the payload.
            ASSERT_LE(written + 16, sink.emitted() + snap::chunkBytes)
                << "after " << written << " payload bytes";
        }
        w.endSection();
        EXPECT_LE(sink.largestWrite(), snap::chunkBytes);
    }

    // Reader: entering verilog-gate's MSYS (caches, TLB and
    // prefetcher tables over many chunks) pulls one chunk and its
    // framing, and a whole restore never asks the stream for more
    // than a chunk and its sum at once.
    SimConfig c;
    c.workload = "verilog-gate";
    Simulator saver(c);
    CountingSink sink;
    std::ostream counted(&sink);
    saver.saveCheckpoint(counted);
    EXPECT_LE(sink.largestWrite(), snap::chunkBytes);
    std::ostringstream os;
    saver.saveCheckpoint(os);
    const std::string ckpt = os.str();
    EXPECT_EQ(sink.emitted(), ckpt.size());

    const SectionFrame msys = findSection(ckpt, "MSYS");
    ASSERT_GT(msys.chunks.size(), 4u);
    CountingSource src(ckpt.substr(0, 12) + ckpt.substr(msys.tag));
    std::istream is(&src);
    snap::Reader r(is);
    r.enterSection("MSYS");
    EXPECT_LE(src.pulled(), 12 + 4 + 4 + snap::chunkBytes + 8);

    CountingSource whole(ckpt);
    std::istream wis(&whole);
    Simulator fork(c);
    fork.restoreCheckpoint(wis);
    EXPECT_EQ(whole.pulled(), ckpt.size());
    EXPECT_LE(whole.largestRead(), snap::chunkBytes + 8);
}

TEST(SnapshotRoundTrip, RestoreVerifiesTheMemoryImage)
{
    SimConfig c;
    c.workload = "speech";
    Simulator saver(c);
    const std::string ckpt = checkpointAfterWarmup(saver, 20'000);

    const auto restoreError = [&](Simulator &fork) -> std::string {
        std::istringstream is(ckpt);
        try {
            fork.restoreCheckpoint(is);
        } catch (const snap::SnapshotError &e) {
            return e.what();
        }
        return "";
    };

    // One byte of the fork's heap differs from the saver's: refused
    // naming STOR, before any state is applied, so putting the byte
    // back lets the same machine restore.
    Simulator fork(c);
    BackingStore &store = fork.heap().backingStore();
    const Addr pa =
        *fork.heap().pageTable().translate(fork.heap().heapBase()) + 123;
    const std::uint8_t byte = store.read8(pa);
    store.write8(pa, byte ^ 0x01);
    std::string err = restoreError(fork);
    EXPECT_NE(err.find("checkpoint section 'STOR'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("memory image differs from this machine's"),
              std::string::npos)
        << err;
    store.write8(pa, byte);
    EXPECT_EQ(restoreError(fork), "");
    const std::string dump = dumpStats(fork);
    EXPECT_EQ(dump, dumpStats(saver));

    // Restoring again over the restored machine gives the same
    // machine.
    EXPECT_EQ(restoreError(fork), "");
    EXPECT_EQ(dumpStats(fork), dump);
    saver.measure(20'000);
    fork.measure(20'000);
    EXPECT_EQ(dumpStats(fork), dumpStats(saver));

    // One extra materialized frame, even all zeros: refused naming
    // STOR, and the restore adds, drops and writes no frame.
    Simulator extra(c);
    BackingStore &more = extra.heap().backingStore();
    const std::size_t built = more.framesTouched();
    more.pageData(c.physFrames * pageBytes);
    err = restoreError(extra);
    EXPECT_NE(err.find("checkpoint section 'STOR'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("materialized frame count mismatch: checkpoint "
                       "has " +
                       std::to_string(built) + ", this simulator has " +
                       std::to_string(built + 1)),
              std::string::npos)
        << err;
    EXPECT_EQ(more.framesTouched(), built + 1);
}

TEST(SnapshotWriter, CheckpointLeavesTheMemoryImageOut)
{
    // STOR is 24 bytes, the frame count, the digest and the heap top,
    // however large the image: a warmed verilog-gate machine holds
    // about 10 MB of frames and checkpoints in well under 1.5 MB. No
    // other section carries memory-layer state.
    SimConfig c;
    c.workload = "verilog-gate";
    Simulator sim(c);
    const std::string ckpt = checkpointAfterWarmup(sim, 200'000);
    const BackingStore &store = sim.heap().backingStore();
    EXPECT_GT(store.framesTouched() * pageBytes, std::size_t{9} << 20);
    EXPECT_LT(ckpt.size(), std::size_t{3} << 19);

    const SectionFrame stor = findSection(ckpt, "STOR");
    ASSERT_EQ(stor.chunks.size(), 1u);
    const std::size_t at = stor.chunks[0];
    EXPECT_EQ(loadLe(ckpt, at, 4), 24u);
    EXPECT_EQ(loadLe(ckpt, at + 4, 8), store.framesTouched());
    EXPECT_EQ(loadLe(ckpt, at + 12, 8), store.digest());
    EXPECT_EQ(loadLe(ckpt, at + 20, 8), sim.heap().heapTop());

    std::vector<std::string> tags;
    for (std::size_t pos = 12; pos + 8 <= ckpt.size(); pos += 4) {
        tags.push_back(ckpt.substr(pos, 4));
        for (pos += 4; pos + 4 <= ckpt.size() && loadLe(ckpt, pos, 4);)
            pos += 4 + loadLe(ckpt, pos, 4) + 8;
    }
    EXPECT_EQ(tags, (std::vector<std::string>{"CFG!", "STOR", "WKLD",
                                               "MSYS", "CORE", "STAT",
                                               "END!"}));
}

TEST(SnapshotRoundTrip, RestoreVerifiesTheHeapTop)
{
    // An allocation inside the heap's last mapped page maps nothing
    // and writes nothing, so the frame count and the image digest
    // cannot see it: only STOR's heap top refuses the restore.
    SimConfig c;
    c.workload = "speech";
    Simulator saver(c);
    const std::string ckpt = checkpointAfterWarmup(saver, 20'000);

    Simulator fork(c);
    HeapAllocator &heap = fork.heap();
    const BackingStore &store = heap.backingStore();
    const Addr top = heap.heapTop();
    ASSERT_NE(pageOffset(top), 0u) << "the heap ends on a page boundary";
    const std::size_t frames = store.framesTouched();
    const std::uint64_t digest = store.digest();
    const std::uint64_t mapped = heap.pageTable().mappedPages();
    EXPECT_EQ(heap.alloc(3, 1), top);
    EXPECT_EQ(store.framesTouched(), frames);
    EXPECT_EQ(store.digest(), digest);
    EXPECT_EQ(heap.pageTable().mappedPages(), mapped);

    std::istringstream is(ckpt);
    try {
        fork.restoreCheckpoint(is);
        ADD_FAILURE() << "a fork with another heap top was restored";
    } catch (const snap::SnapshotError &e) {
        const std::string err = e.what();
        EXPECT_NE(err.find("checkpoint section 'STOR'"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("heap top mismatch: checkpoint has " +
                           std::to_string(top) + ", this simulator has " +
                           std::to_string(top + 3)),
                  std::string::npos)
            << err;
    }
}

TEST(SnapshotWriter, CheckpointBytesAreDeterministic)
{
    SimConfig c;
    c.workload = "b2c";
    c.markov.enabled = true; // exercise the key-sorted big table
    Simulator a(c), b(c);
    EXPECT_EQ(checkpointAfterWarmup(a, 30'000),
              checkpointAfterWarmup(b, 30'000));
}
