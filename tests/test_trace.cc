/** @file Unit tests for uop-trace capture and replay. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>

#include "obs/trace_io.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"
#include "workloads/builders.hh"
#include "workloads/generators.hh"

using namespace cdp;

namespace
{

/** Temp-file path helper; files are removed in TearDown. */
struct TraceFixture : ::testing::Test
{
    std::string path;

    void
    SetUp() override
    {
        path = ::testing::TempDir() + "cdp_trace_test_" +
               std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
               ".cdpt";
    }

    void TearDown() override { std::remove(path.c_str()); }
};

Uop
sampleUop(unsigned i)
{
    Uop u;
    u.type = static_cast<UopType>(i % 6);
    u.pc = 0x1000 + 4 * i;
    u.vaddr = 0x10000000 + 64 * i;
    u.src0 = static_cast<std::int8_t>(i % 32);
    u.src1 = (i % 3) ? noReg : static_cast<std::int8_t>(i % 7);
    u.dst = static_cast<std::int8_t>((i + 1) % 32);
    u.taken = (i % 2) != 0;
    u.pointerLoad = (i % 5) == 0;
    return u;
}

/** Write @p words (u32 or u64 each, by the paired flag) to @p path. */
void
writeRaw(const std::string &path,
         std::initializer_list<std::pair<std::uint64_t, bool>> words)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (const auto &[v, wide] : words) {
        if (wide) {
            std::fwrite(&v, sizeof(v), 1, f);
        } else {
            const auto v32 = static_cast<std::uint32_t>(v);
            std::fwrite(&v32, sizeof(v32), 1, f);
        }
    }
    std::fclose(f);
}

/** The std::runtime_error message @p open throws, or "(no error)". */
template <typename Open>
std::string
openError(Open open)
{
    try {
        open();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "(no error)";
}

/** Overwrite byte @p offset of @p path with @p value. */
void
patchByte(const std::string &path, long offset, std::uint8_t value)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(value, f);
    std::fclose(f);
}

bool
sameUop(const Uop &a, const Uop &b)
{
    return a.type == b.type && a.pc == b.pc && a.vaddr == b.vaddr &&
           a.src0 == b.src0 && a.src1 == b.src1 && a.dst == b.dst &&
           a.taken == b.taken && a.pointerLoad == b.pointerLoad;
}

} // namespace

TEST_F(TraceFixture, RoundTripPreservesEveryField)
{
    {
        TraceWriter w(path, "unit-test");
        for (unsigned i = 0; i < 500; ++i)
            w.append(sampleUop(i));
        w.close();
    }
    TraceReader r(path);
    EXPECT_EQ(r.count(), 500u);
    EXPECT_EQ(r.workloadTag(), "unit-test");
    Uop u;
    for (unsigned i = 0; i < 500; ++i) {
        ASSERT_TRUE(r.next(u)) << i;
        EXPECT_TRUE(sameUop(u, sampleUop(i))) << "uop " << i;
    }
    EXPECT_FALSE(r.next(u));
}

TEST_F(TraceFixture, EmptyTraceReadsNothing)
{
    {
        TraceWriter w(path, "empty");
        w.close();
    }
    TraceReader r(path);
    EXPECT_EQ(r.count(), 0u);
    Uop u;
    EXPECT_FALSE(r.next(u));
}

TEST_F(TraceFixture, WriterCountTracksAppends)
{
    TraceWriter w(path, "t");
    for (unsigned i = 0; i < 7; ++i)
        w.append(sampleUop(i));
    EXPECT_EQ(w.count(), 7u);
    w.close();
}

TEST_F(TraceFixture, AppendAfterCloseThrows)
{
    TraceWriter w(path, "t");
    w.close();
    EXPECT_THROW(w.append(sampleUop(0)), std::logic_error);
}

TEST_F(TraceFixture, BadMagicRejected)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace file at all", f);
    std::fclose(f);
    EXPECT_THROW(TraceReader r(path), std::runtime_error);
}

TEST_F(TraceFixture, MissingFileRejected)
{
    EXPECT_THROW(TraceReader r("/nonexistent/dir/x.cdpt"),
                 std::runtime_error);
}

// Lengths in a header are untrusted: each claim is checked against
// the bytes the file still holds before anything is allocated for
// it. The claims stay small enough that a reader allocating them
// first would still fail fast.
TEST_F(TraceFixture, HostileTagLengthRefused)
{
    writeRaw(path, {{traceMagic, false}, {traceVersion, false},
                    {1, true}, {1u << 20, false}});
    const std::string err = openError([&] { TraceReader r(path); });
    EXPECT_NE(err.find("tag length"), std::string::npos) << err;
}

TEST_F(TraceFixture, HostileUopCountRefused)
{
    {
        TraceWriter w(path, "t");
        w.append(sampleUop(0));
        w.close();
    }
    patchByte(path, 8, 0x02); // count 1 -> 2, one record present
    const std::string err = openError([&] { TraceReader r(path); });
    EXPECT_NE(err.find("uop count"), std::string::npos) << err;
}

TEST_F(TraceFixture, HostileLifecycleHeaderRefused)
{
    const auto load = [&] { (void)obs::readBinaryTrace(path); };
    writeRaw(path, {{obs::traceEventMagic, false},
                    {obs::traceEventVersion, false},
                    {0, true}, {0, true}, {1u << 20, false}});
    const std::string tagErr = openError(load);
    EXPECT_NE(tagErr.find("tag length"), std::string::npos) << tagErr;

    writeRaw(path, {{obs::traceEventMagic, false},
                    {obs::traceEventVersion, false},
                    {1u << 16, true}, {0, true}, {0, false}});
    const std::string countErr = openError(load);
    EXPECT_NE(countErr.find("event count"), std::string::npos)
        << countErr;
}

// Records go through the checkpoint's uop rule: a replayed uop the
// core would index its tables with is refused, naming the field.
TEST_F(TraceFixture, HostileRecordFieldsRefused)
{
    // Header: magic, version, count, tag length, tag "t" = 21 bytes;
    // record fields: type, flags, src0, src1, dst.
    constexpr long rec = 21;
    const struct
    {
        long offset;
        std::uint8_t value;
        const char *field;
    } cases[] = {
        {rec + 0, 0xff, "uop type"},
        {rec + 3, 40, "src1 register 40"},
        {rec + 4, 0x80, "dst register 128"},
        {rec + 1, 0x04, "flag bits"},
    };
    for (const auto &c : cases) {
        {
            TraceWriter w(path, "t");
            w.append(sampleUop(0));
            w.close();
        }
        patchByte(path, c.offset, c.value);
        TraceReader r(path);
        Uop u;
        const std::string err = openError([&] { r.next(u); });
        EXPECT_NE(err.find(c.field), std::string::npos) << err;
        EXPECT_NE(err.find("record 0"), std::string::npos) << err;
    }
}

TEST_F(TraceFixture, TraceSourceLoopsForever)
{
    {
        TraceWriter w(path, "loop");
        for (unsigned i = 0; i < 10; ++i)
            w.append(sampleUop(i));
        w.close();
    }
    TraceSource src(path);
    for (unsigned lap = 0; lap < 3; ++lap) {
        for (unsigned i = 0; i < 10; ++i)
            EXPECT_TRUE(sameUop(src.next(), sampleUop(i)))
                << "lap " << lap << " uop " << i;
    }
    EXPECT_EQ(src.wraps(), 2u);
}

TEST_F(TraceFixture, EmptyTraceSourceRejected)
{
    {
        TraceWriter w(path, "empty");
        w.close();
    }
    EXPECT_THROW(TraceSource src(path), std::runtime_error);
}

TEST_F(TraceFixture, CapturedWorkloadReplaysIdentically)
{
    // Capture a real generator's stream, then replay it and compare.
    BackingStore store;
    FrameAllocator frames{0, 8192, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    Rng rng{5};
    BuiltList list = buildLinkedList(heap, 64, 64, 8, 2, rng);
    BuiltList list_copy = list;

    WalkOptions w;
    ListTraversalGen gen(heap, std::move(list), 0x1000, 0, w, 42);
    std::vector<Uop> reference;
    {
        CapturingSource cap(gen, path, "list/seed42");
        for (int i = 0; i < 300; ++i)
            reference.push_back(cap.next());
        cap.finish();
        EXPECT_EQ(cap.captured(), 300u);
    }

    TraceSource replay(path);
    EXPECT_EQ(std::string(replay.name()), "trace:list/seed42");
    for (int i = 0; i < 300; ++i)
        EXPECT_TRUE(sameUop(replay.next(), reference[i])) << i;
    (void)list_copy;
}

TEST_F(TraceFixture, CdpsimCaptureReplaysToIdenticalStats)
{
    // The core fetches in batches, so a capture also records the
    // buffered-but-unissued tail; a replay of the same length reads
    // the same prefix and must reproduce the generated run exactly.
    SimConfig cfg;
    cfg.workload = "b2c";
    cfg.warmupUops = 20'000;
    cfg.measureUops = 60'000;
    const std::string cmd = std::string(CDPSIM_PATH) +
                            " workload=b2c warmup_uops=20000"
                            " measure_uops=60000 --capture=" +
                            path + " 2>/dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    Simulator generated(cfg);
    (void)generated.run();
    std::ostringstream want;
    generated.stats().dump(want);

    // Same machine and heap image, fed from the trace, wired and
    // phased as Simulator does it.
    Simulator rebuild(cfg);
    TraceSource replay(path);
    StatGroup stats;
    MemorySystem mem(cfg, rebuild.heap().backingStore(),
                     rebuild.heap().pageTable(), &stats);
    OooCore core(cfg.core, replay, mem, &stats);
    core.run(cfg.warmupUops);
    stats.resetAll();
    mem.resetCounters();
    core.resetMeasurement();
    core.run(cfg.measureUops);
    std::ostringstream got;
    stats.dump(got);

    // The capture holds every retired uop plus the fetched tail. (The
    // replay's two run() calls may overshoot by a retire group and
    // fetch past the end; such uops are never issued, or the dumps
    // would differ.)
    EXPECT_GT(TraceReader(path).count(),
              cfg.warmupUops + cfg.measureUops);
    EXPECT_EQ(got.str(), want.str());
}
