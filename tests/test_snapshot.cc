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

#include <sstream>
#include <string>

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

TEST_F(SnapshotCorruption, FormatSixFileIsRejected)
{
    // Format 6 carried the stride prefetcher unconditionally and
    // has/lacks flags for next-line and Markov in MSYS; format 7
    // carries the count and names of the built prefetchers, so a
    // format-6 file fails the version check instead of misreading MSYS.
    ASSERT_EQ(snap::formatVersion, 7u);
    std::string old = bytes;
    old[8] = 6; // little-endian u32 right after the magic
    const std::string err = restoreError(old);
    EXPECT_NE(err.find("version skew"), std::string::npos) << err;
    EXPECT_NE(err.find("file has version 6"), std::string::npos) << err;
    EXPECT_NE(err.find("reads version 7"), std::string::npos) << err;
}

namespace
{

/** @p ckpt with the first section's (CFG!) length set to @p len. */
std::string
withFirstSectionLength(std::string ckpt, std::uint64_t len)
{
    for (unsigned i = 0; i < 8; ++i)
        ckpt[16 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    return ckpt;
}

} // namespace

TEST_F(SnapshotCorruption, HugeSectionLengthIsTruncationNotBadAlloc)
{
    const std::string err =
        restoreError(withFirstSectionLength(bytes, std::uint64_t{1} << 62));
    EXPECT_NE(err.find("truncated checkpoint"), std::string::npos) << err;
    EXPECT_NE(err.find("'CFG!' promises 4611686018427387904 bytes"),
              std::string::npos)
        << err;
}

TEST_F(SnapshotCorruption, SectionLengthBeyondTheStreamIsTruncation)
{
    // 3 GB: read in bounded chunks, so this fails after reading what
    // the stream holds instead of allocating the promised length.
    const std::string err =
        restoreError(withFirstSectionLength(bytes, 3ull << 30));
    EXPECT_NE(err.find("'CFG!' promises 3221225472 bytes, stream has " +
                       std::to_string(bytes.size() - 24)),
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
    // Payloads of 0..100 bytes cover the 8-byte word path and every
    // tail length; a flipped bit in the payload or in the stored sum
    // must always be caught.
    for (std::size_t n = 0; n <= 100; ++n) {
        std::string payload(n, '\0');
        for (std::size_t i = 0; i < n; ++i)
            payload[i] = static_cast<char>(i * 37 + n);
        std::ostringstream os;
        snap::Writer w(os);
        w.beginSection("TEST");
        w.bytes(reinterpret_cast<const std::uint8_t *>(payload.data()), n);
        w.endSection();
        const std::string clean = os.str();
        const std::size_t first = 12 + 4 + 8; // header, tag, length
        ASSERT_EQ(clean.size(), first + n + 8);
        for (std::size_t bit = first * 8; bit < clean.size() * 8; ++bit) {
            std::string damaged = clean;
            damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^
                                                 (1 << (bit % 8)));
            std::istringstream is(damaged);
            snap::Reader r(is);
            try {
                r.enterSection("TEST");
                ADD_FAILURE() << "flip of bit " << bit << " with a "
                              << n << "-byte payload went unnoticed";
            } catch (const snap::SnapshotError &e) {
                ASSERT_NE(std::string(e.what()).find("fails its checksum"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(SnapshotRoundTrip, RestoreReusesAndDropsFrames)
{
    SimConfig c;
    c.workload = "speech";
    Simulator saver(c);
    const std::string ckpt = checkpointAfterWarmup(saver, 20'000);
    const std::size_t saved_frames =
        saver.heap().backingStore().framesTouched();

    // A page beyond the frame allocator's range: the saver never has
    // it, so the restore must drop it.
    Simulator fork(c);
    BackingStore &store = fork.heap().backingStore();
    const Addr extra = c.physFrames * pageBytes + 0x40;
    store.write32(extra, 0xdeadbeef);
    std::istringstream first(ckpt);
    fork.restoreCheckpoint(first);
    EXPECT_EQ(store.framesTouched(), saved_frames);
    EXPECT_EQ(store.read32(extra), 0u);
    const std::string dump = dumpStats(fork);
    EXPECT_EQ(dump, dumpStats(saver));

    // Restoring again over the restored machine, every frame now
    // reused in place, gives the same machine.
    std::istringstream second(ckpt);
    fork.restoreCheckpoint(second);
    EXPECT_EQ(store.framesTouched(), saved_frames);
    EXPECT_EQ(dumpStats(fork), dump);
    saver.measure(20'000);
    fork.measure(20'000);
    EXPECT_EQ(dumpStats(fork), dumpStats(saver));
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
