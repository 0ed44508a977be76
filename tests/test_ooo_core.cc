/** @file
 * Unit tests for the out-of-order window core: issue width, ROB
 * limits, dependency timing, MLP, and misprediction bubbles.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "common/rng.hh"
#include "cpu/ooo_core.hh"
#include "snapshot/ckpt_io.hh"

using namespace cdp;

namespace
{

/** Every directed case runs on both loops. */
constexpr CoreLoop bothLoops[] = {CoreLoop::Event, CoreLoop::Cycle};

const char *
loopName(CoreLoop loop)
{
    return loop == CoreLoop::Event ? "event loop" : "cycle loop";
}

/** Scripted uop source for directed tests (repeats its program). */
class ScriptSource : public UopSource
{
  public:
    explicit ScriptSource(std::vector<Uop> program)
        : program(std::move(program))
    {
    }

    Uop
    next() override
    {
        Uop u = program[pos];
        pos = (pos + 1) % program.size();
        return u;
    }

    const char *name() const override { return "script"; }

  private:
    std::vector<Uop> program;
    std::size_t pos = 0;
};

/** Memory stub with programmable latency. */
class StubMem : public CoreMemIf
{
  public:
    std::function<Cycle(Addr, Cycle)> loadFn = [](Addr, Cycle now) {
        return now + 3;
    };
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    Cycle
    load(Addr, Addr vaddr, Cycle now, bool) override
    {
        ++loads;
        return loadFn(vaddr, now);
    }

    Cycle
    store(Addr, Addr, Cycle now) override
    {
        ++stores;
        return now + 1;
    }

    void advance(Cycle) override {}
};

Uop
alu(std::int8_t src, std::int8_t dst)
{
    Uop u;
    u.type = UopType::Alu;
    u.src0 = src;
    u.dst = dst;
    return u;
}

Uop
load(Addr va, std::int8_t src, std::int8_t dst)
{
    Uop u;
    u.type = UopType::Load;
    u.vaddr = va;
    u.src0 = src;
    u.dst = dst;
    return u;
}

Uop
branch(Addr pc, bool taken)
{
    Uop u;
    u.type = UopType::Branch;
    u.pc = pc;
    u.taken = taken;
    return u;
}

} // namespace

TEST(OooCore, IndependentAlusRetireAtIssueWidth)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        ScriptSource src({alu(noReg, 1)});
        StubMem mem;
        CoreConfig cfg;
        OooCore core(cfg, src, mem, nullptr, "core", loop);
        const Cycle cycles = core.run(3000);
        // 3-wide machine running independent 1-cycle ALUs: IPC -> 3.
        const double ipc = 3000.0 / cycles;
        EXPECT_GT(ipc, 2.7);
        EXPECT_LE(ipc, 3.05);
    }
}

TEST(OooCore, DependentChainSerializes)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        // Every ALU depends on the previous one: IPC -> 1.
        ScriptSource src({alu(1, 1)});
        StubMem mem;
        OooCore core(CoreConfig{}, src, mem, nullptr, "core", loop);
        const Cycle cycles = core.run(3000);
        const double ipc = 3000.0 / cycles;
        EXPECT_GT(ipc, 0.9);
        EXPECT_LT(ipc, 1.1);
    }
}

TEST(OooCore, PointerChaseGatedByLoadLatency)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        // load r1 <- [r1]: each load's address depends on the previous
        // load's data. With 100-cycle loads, one load per ~100 cycles.
        ScriptSource src({load(0x1000, 1, 1)});
        StubMem mem;
        mem.loadFn = [](Addr, Cycle now) { return now + 100; };
        OooCore core(CoreConfig{}, src, mem, nullptr, "core", loop);
        const Cycle cycles = core.run(200);
        EXPECT_GT(cycles, 200u * 95);
        EXPECT_LT(cycles, 200u * 110);
    }
}

TEST(OooCore, IndependentLoadsOverlap)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        // Loads with no register deps: ROB/width-bound, not latency.
        ScriptSource src({load(0x1000, noReg, 1)});
        StubMem mem;
        mem.loadFn = [](Addr, Cycle now) { return now + 100; };
        CoreConfig cfg;
        OooCore core(cfg, src, mem, nullptr, "core", loop);
        const Cycle cycles = core.run(960);
        // 48-entry load buffer bounds MLP; far better than serial.
        EXPECT_LT(cycles, 960u * 20);
    }
}

TEST(OooCore, LoadBufferBoundsMlp)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        // With a load buffer of 2, at most 2 loads in flight.
        ScriptSource src({load(0x1000, noReg, 1)});
        StubMem mem;
        mem.loadFn = [](Addr, Cycle now) { return now + 100; };
        CoreConfig cfg;
        cfg.loadBuffer = 2;
        OooCore core(cfg, src, mem, nullptr, "core", loop);
        const Cycle cycles = core.run(200);
        // ~2 loads per 100 cycles -> >= 9000 cycles for 200 loads.
        EXPECT_GT(cycles, 9000u);
    }
}

TEST(OooCore, RobBoundsWindow)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        // A long-latency load followed by many ALUs: the ROB fills and
        // issue stalls until the load completes.
        std::vector<Uop> prog;
        prog.push_back(load(0x1000, noReg, 1));
        for (int i = 0; i < 63; ++i)
            prog.push_back(alu(noReg, 2));
        ScriptSource src(prog);
        StubMem mem;
        mem.loadFn = [](Addr, Cycle now) { return now + 1000; };
        CoreConfig cfg;
        cfg.robEntries = 16;
        OooCore core(cfg, src, mem, nullptr, "core", loop);
        const Cycle small_rob = core.run(640);

        ScriptSource src2(prog);
        StubMem mem2;
        mem2.loadFn = [](Addr, Cycle now) { return now + 1000; };
        cfg.robEntries = 128;
        OooCore core2(cfg, src2, mem2, nullptr, "core", loop);
        const Cycle big_rob = core2.run(640);
        EXPECT_LT(big_rob, small_rob);
    }
}

TEST(OooCore, ImpossibleGeometryThrowsInsteadOfSpinning)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        // Each machine can never retire: with no event left to wait for,
        // the core must diagnose itself rather than loop forever.
        const auto stall = [loop](CoreConfig cfg, Uop u) {
            ScriptSource src({u});
            StubMem mem;
            OooCore core(cfg, src, mem, nullptr, "core", loop);
            try {
                core.run(10);
            } catch (const CoreStallError &e) {
                return std::string(e.what());
            }
            return std::string();
        };
        CoreConfig no_rob;
        no_rob.robEntries = 0; // shape 1: empty ROB, fetch not stalled
        const std::string rob = stall(no_rob, alu(noReg, 1));
        EXPECT_NE(rob.find("ROB 0/0"), std::string::npos) << rob;

        CoreConfig no_retire;
        no_retire.retireWidth = 0; // shape 2: complete head never retires
        const std::string retire = stall(no_retire, alu(noReg, 1));
        EXPECT_NE(retire.find("retireWidth 0"), std::string::npos) << retire;
        EXPECT_NE(retire.find("ROB 128/128"), std::string::npos) << retire;

        CoreConfig no_lb;
        no_lb.loadBuffer = 0;
        const std::string lb = stall(no_lb, load(0x1000, noReg, 1));
        EXPECT_NE(lb.find("LB 0/0"), std::string::npos) << lb;
    }
}

TEST(OooCore, MispredictStallsFetch)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        // Random 50/50 branches vs always-taken: random must be slower
        // because of 28-cycle bubbles.
        std::vector<Uop> taken_prog, random_prog;
        for (int i = 0; i < 8; ++i) {
            taken_prog.push_back(alu(noReg, 1));
            random_prog.push_back(alu(noReg, 1));
        }
        taken_prog.push_back(branch(0x400, true));

        // Deterministic pseudo-random outcome sequence baked into the
        // program (period 16 with mixed outcomes defeats the predictor
        // less than true randomness, so use a long mixed pattern).
        for (int i = 0; i < 16; ++i)
            random_prog.push_back(branch(0x400 + 4 * i,
                                         (i * 2654435761u >> 13) & 1));

        ScriptSource ts(taken_prog);
        StubMem m1;
        OooCore c1(CoreConfig{}, ts, m1, nullptr, "core", loop);
        const Cycle predictable = c1.run(20000);

        ScriptSource rs(random_prog);
        StubMem m2;
        OooCore c2(CoreConfig{}, rs, m2, nullptr, "core", loop);
        const Cycle bubbly = c2.run(20000);
        EXPECT_GT(bubbly, predictable);
    }
}

TEST(OooCore, StoresCountAndComplete)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        Uop st;
        st.type = UopType::Store;
        st.vaddr = 0x2000;
        ScriptSource src({st});
        StubMem mem;
        OooCore core(CoreConfig{}, src, mem, nullptr, "core", loop);
        core.run(100);
        // run() retires at least 100; a few extra may have issued.
        EXPECT_GE(mem.stores, 100u);
        EXPECT_LE(mem.stores, 140u);
    }
}

TEST(OooCore, RetiredUopsTracked)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        ScriptSource src({alu(noReg, 1)});
        StubMem mem;
        OooCore core(CoreConfig{}, src, mem, nullptr, "core", loop);
        core.run(123);
        // Retirement is up to retireWidth per cycle, so the target can
        // be overshot by at most retireWidth - 1.
        EXPECT_GE(core.retiredUops(), 123u);
        EXPECT_LE(core.retiredUops(), 125u);
    }
}

TEST(OooCore, IpcResetForMeasurement)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        ScriptSource src({alu(1, 1)}); // serial: IPC ~1
        StubMem mem;
        StatGroup stats;
        OooCore core(CoreConfig{}, src, mem, &stats, "core", loop);
        core.run(1000);
        stats.resetAll();
        core.resetMeasurement();
        core.run(500);
        const double ipc = core.ipc();
        EXPECT_GT(ipc, 0.8);
        EXPECT_LT(ipc, 1.2);
    }
}

TEST(OooCore, FpLatencyLongerThanAlu)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        Uop fp;
        fp.type = UopType::Fp;
        fp.src0 = 1;
        fp.dst = 1; // serial FP chain
        ScriptSource fsrc({fp});
        StubMem m1;
        OooCore fcore(CoreConfig{}, fsrc, m1, nullptr, "core", loop);
        const Cycle fp_cycles = fcore.run(1000);

        ScriptSource asrc({alu(1, 1)});
        StubMem m2;
        OooCore acore(CoreConfig{}, asrc, m2, nullptr, "core", loop);
        const Cycle alu_cycles = acore.run(1000);
        EXPECT_GT(fp_cycles, 2 * alu_cycles);
    }
}

/** Property: cycles scale linearly with uops for regular streams. */
class CoreLinearity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CoreLinearity, CyclesProportionalToWork)
{
    for (const CoreLoop loop : bothLoops) {
        SCOPED_TRACE(loopName(loop));
        const std::uint64_t n = GetParam();
        ScriptSource src({alu(noReg, 1)});
        StubMem mem;
        OooCore core(CoreConfig{}, src, mem, nullptr, "core", loop);
        const Cycle cycles = core.run(n);
        const double ipc = static_cast<double>(n) / cycles;
        EXPECT_GT(ipc, 2.5);
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CoreLinearity,
                         ::testing::Values(300u, 3000u, 30000u));

// ---------------------------------------------------------------------
// Event loop vs cycle loop: a fuzzed lattice of geometries and streams
// ---------------------------------------------------------------------

namespace
{

/** Stream shapes: random mixes plus the corner cases of the loops. */
enum class Shape
{
    Mixed,      //!< every uop type, short and long loads, random branches
    RobAtFetch, //!< long loads then a mispredict: ROB full as fetch resumes
    BufferFull, //!< load and store bursts against small LB/SB
    LastSlot,   //!< a mispredicting branch in the last slot of each group
};

/** Seeded random uop stream; copyable so a checkpoint can fork it. */
class FuzzSource : public UopSource
{
  public:
    FuzzSource(Shape shape, unsigned group, std::uint64_t seed)
        : shape(shape), group(group), rng(seed)
    {
    }

    Uop
    next() override
    {
        Uop u;
        const unsigned pos = count++ % group;
        const std::uint64_t x = rng.next64();
        const auto reg = [&x](unsigned shift) {
            const auto r = static_cast<std::int8_t>((x >> shift) % 10);
            return r >= 8 ? noReg : r;
        };
        u.src0 = reg(8);
        u.src1 = reg(16);
        u.dst = reg(24);
        u.pc = static_cast<Addr>(0x400 + 4 * ((x >> 32) % 16));
        // Bit 31 of vaddr asks RecordingMem for a long latency.
        const bool slow = ((x >> 40) % 8) == 0;
        u.vaddr = static_cast<Addr>(((x >> 44) & 0xfff0) |
                                    (slow ? 0x80000000u : 0));
        u.taken = ((x >> 56) & 1) != 0;

        unsigned pick = static_cast<unsigned>(x % 16);
        switch (shape) {
          case Shape::Mixed:
            break;
          case Shape::RobAtFetch:
            // A long load opens each group and a branch closes it.
            pick = pos == 0 ? 0 : pos + 1 == group ? 15 : 8;
            if (pos == 0)
                u.vaddr |= 0x80000000u;
            break;
          case Shape::BufferFull:
            pick = pick < 12 ? pick % 8 : pick;
            break;
          case Shape::LastSlot:
            pick = pos + 1 == group ? 15 : 8 + pick % 4;
            break;
        }
        u.type = pick < 5   ? UopType::Load
                 : pick < 8 ? UopType::Store
                 : pick < 11 ? UopType::Alu
                 : pick < 13 ? UopType::Fp
                 : pick < 14 ? UopType::Nop
                             : UopType::Branch;
        if (u.type == UopType::Store)
            u.dst = noReg;
        return u;
    }

    const char *name() const override { return "fuzz"; }

  private:
    Shape shape;
    unsigned group;
    Rng rng;
    std::uint64_t count = 0;
};

/** One memory-interface call: 'A'dvance, 'L'oad or 'S'tore. */
struct MemCall
{
    char kind;
    Cycle cycle;
    bool operator==(const MemCall &) const = default;
};

/**
 * Memory stub that logs every call. Latencies depend on the whole
 * call history, so any divergence in call order shows in timing too.
 * With a finite hint it reports the earliest outstanding completion
 * as its next event (the wheel contract); otherwise it keeps the
 * legacy call-every-cycle hint 0.
 */
class RecordingMem : public CoreMemIf
{
  public:
    explicit RecordingMem(bool finite_hint) : finiteHint(finite_hint) {}

    std::vector<MemCall> calls;

    Cycle
    load(Addr, Addr vaddr, Cycle now, bool) override
    {
        calls.push_back({'L', now});
        const std::uint64_t h = mix(vaddr ^ now);
        const Cycle lat = (vaddr & 0x80000000u) ? 60 + h % 240 : h % 5;
        pending.push_back(now + lat);
        return now + lat;
    }

    Cycle
    store(Addr, Addr vaddr, Cycle now) override
    {
        calls.push_back({'S', now});
        const Cycle lat = mix(vaddr + now) % 3;
        pending.push_back(now + lat);
        return now + lat;
    }

    void
    advance(Cycle now) override
    {
        calls.push_back({'A', now});
        std::erase_if(pending, [now](Cycle c) { return c <= now; });
    }

    Cycle
    nextEventCycle() const override
    {
        if (!finiteHint)
            return 0;
        Cycle next = noPendingEvent;
        for (const Cycle c : pending)
            next = std::min(next, c);
        return next;
    }

  private:
    std::uint64_t
    mix(std::uint64_t v) const
    {
        v ^= calls.size() * 0x9e3779b97f4a7c15ull;
        v = (v ^ (v >> 31)) * 0xbf58476d1ce4e5b9ull;
        return v ^ (v >> 29);
    }

    bool finiteHint;
    std::vector<Cycle> pending;
};

/** A core with its own stream, memory and stats. */
struct Rig
{
    Rig(const CoreConfig &cfg, CoreLoop loop, const FuzzSource &src,
        const RecordingMem &mem)
        : source(src), memory(mem),
          core(cfg, source, memory, &stats, "core", loop)
    {
    }

    std::string
    state() const
    {
        std::ostringstream os;
        snap::Writer w(os);
        w.beginSection("CORE");
        core.saveState(w);
        w.endSection();
        return os.str();
    }

    std::string
    dump() const
    {
        std::ostringstream os;
        stats.dump(os);
        return os.str();
    }

    FuzzSource source;
    RecordingMem memory;
    StatGroup stats;
    OooCore core;
};

/** Both rigs must agree on every observable after a run() call. */
void
expectSame(const Rig &a, const Rig &b, const std::string &where)
{
    ASSERT_EQ(a.core.currentCycle(), b.core.currentCycle()) << where;
    ASSERT_EQ(a.dump(), b.dump()) << where;
    ASSERT_EQ(a.state(), b.state()) << where;
    ASSERT_EQ(a.memory.calls.size(), b.memory.calls.size()) << where;
    ASSERT_TRUE(a.memory.calls == b.memory.calls) << where;
}

CoreConfig
latticePoint(Rng &rng)
{
    const auto in = [&rng](unsigned lo, unsigned hi) {
        return static_cast<unsigned>(lo + rng.below(hi - lo + 1));
    };
    CoreConfig c;
    c.issueWidth = in(1, 8);
    c.retireWidth = in(1, 8);
    // Favour small windows, where every limit binds often.
    c.robEntries = rng.chance(0.5) ? in(1, 16) : in(1, 256);
    c.loadBuffer = rng.chance(0.5) ? in(1, 4) : in(1, 48);
    c.storeBuffer = rng.chance(0.5) ? in(1, 4) : in(1, 48);
    c.mispredictPenalty = rng.chance(0.2) ? 0 : in(0, 64);
    c.bpEntries = 64;
    c.aluLatency = in(1, 5);
    c.fpLatency = in(1, 5);
    return c;
}

std::string
describe(const CoreConfig &c, Shape shape, bool hint, unsigned point)
{
    std::ostringstream os;
    os << "point " << point << " shape " << static_cast<int>(shape)
       << (hint ? " finite-hint" : " hint-0") << " iw " << c.issueWidth
       << " rw " << c.retireWidth << " rob " << c.robEntries << " lb "
       << c.loadBuffer << " sb " << c.storeBuffer << " pen "
       << c.mispredictPenalty << " alu " << c.aluLatency << " fp "
       << c.fpLatency;
    return os.str();
}

} // namespace

TEST(CoreLoops, FuzzedLatticeAgreesCallForCall)
{
    constexpr std::uint64_t splits[] = {1, 2, 7, 1000, 7, 1, 1000, 2};
    constexpr Shape shapes[] = {Shape::Mixed, Shape::RobAtFetch,
                                Shape::BufferFull, Shape::LastSlot};
    Rng rng(0xc0de);
    std::uint64_t rob_full = 0, fetch_stall = 0;
    for (unsigned point = 0; point < 60; ++point) {
        const CoreConfig cfg = latticePoint(rng);
        for (const Shape shape : shapes) {
            for (const bool hint : {false, true}) {
                const std::string what =
                    describe(cfg, shape, hint, point);
                const FuzzSource src(shape, cfg.issueWidth,
                                     rng.next64());
                const RecordingMem mem(hint);
                Rig ev(cfg, CoreLoop::Event, src, mem);
                Rig cy(cfg, CoreLoop::Cycle, src, mem);
                for (std::size_t k = 0; k < std::size(splits); ++k) {
                    const Cycle a = ev.core.run(splits[k]);
                    const Cycle b = cy.core.run(splits[k]);
                    ASSERT_EQ(a, b) << what << " run " << k;
                    expectSame(ev, cy, what + " run " + std::to_string(k));
                }
                rob_full += *ev.stats.find("core.rob_full_cycles");
                fetch_stall += *ev.stats.find("core.fetch_stall_cycles");
            }
        }
    }
    // The lattice must actually reach both stall shapes.
    EXPECT_GT(rob_full, 0u);
    EXPECT_GT(fetch_stall, 0u);
}

TEST(CoreLoops, CheckpointRestoresIntoEitherLoop)
{
    // A checkpoint taken mid-stream by either loop restores into
    // either loop, and the two restored cores stay in lockstep. A
    // restore re-queries the wake hint, so with a finite hint the
    // restored cores may make one advance() call the original skips:
    // they match the original only under hint 0.
    Rng rng(0xfeed);
    for (unsigned point = 0; point < 40; ++point) {
        const CoreConfig cfg = latticePoint(rng);
        const bool hint = point % 2 != 0;
        const std::string what =
            describe(cfg, Shape::Mixed, hint, point);
        const FuzzSource src(Shape::Mixed, cfg.issueWidth, rng.next64());
        const RecordingMem mem(hint);
        for (const CoreLoop from : bothLoops) {
            Rig origin(cfg, from, src, mem);
            origin.core.run(500 + point);
            const std::string bytes = origin.state();
            Rig ev(cfg, CoreLoop::Event, origin.source, origin.memory);
            Rig cy(cfg, CoreLoop::Cycle, origin.source, origin.memory);
            for (Rig *r : {&ev, &cy}) {
                std::istringstream is(bytes);
                snap::Reader rd(is);
                rd.enterSection("CORE");
                r->core.loadState(rd);
                rd.leaveSection();
            }
            ASSERT_EQ(ev.state(), bytes) << what;
            ASSERT_EQ(cy.state(), bytes) << what;
            for (const std::uint64_t n : {1u, 7u, 1000u, 2u}) {
                origin.core.run(n);
                ev.core.run(n);
                cy.core.run(n);
                expectSame(ev, cy, what + " from " + loopName(from));
                if (hint)
                    continue;
                ASSERT_EQ(origin.state(), ev.state()) << what;
                ASSERT_TRUE(origin.memory.calls == ev.memory.calls)
                    << what;
            }
        }
    }
}
