/** @file
 * Unit tests for the out-of-order window core: issue width, ROB
 * limits, dependency timing, MLP, and misprediction bubbles.
 */

#include <gtest/gtest.h>

#include <functional>

#include "cpu/ooo_core.hh"

using namespace cdp;

namespace
{

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
    ScriptSource src({alu(noReg, 1)});
    StubMem mem;
    CoreConfig cfg;
    OooCore core(cfg, src, mem);
    const Cycle cycles = core.run(3000);
    // 3-wide machine running independent 1-cycle ALUs: IPC -> 3.
    const double ipc = 3000.0 / cycles;
    EXPECT_GT(ipc, 2.7);
    EXPECT_LE(ipc, 3.05);
}

TEST(OooCore, DependentChainSerializes)
{
    // Every ALU depends on the previous one: IPC -> 1.
    ScriptSource src({alu(1, 1)});
    StubMem mem;
    OooCore core(CoreConfig{}, src, mem);
    const Cycle cycles = core.run(3000);
    const double ipc = 3000.0 / cycles;
    EXPECT_GT(ipc, 0.9);
    EXPECT_LT(ipc, 1.1);
}

TEST(OooCore, PointerChaseGatedByLoadLatency)
{
    // load r1 <- [r1]: each load's address depends on the previous
    // load's data. With 100-cycle loads, one load per ~100 cycles.
    ScriptSource src({load(0x1000, 1, 1)});
    StubMem mem;
    mem.loadFn = [](Addr, Cycle now) { return now + 100; };
    OooCore core(CoreConfig{}, src, mem);
    const Cycle cycles = core.run(200);
    EXPECT_GT(cycles, 200u * 95);
    EXPECT_LT(cycles, 200u * 110);
}

TEST(OooCore, IndependentLoadsOverlap)
{
    // Loads with no register deps: ROB/width-bound, not latency.
    ScriptSource src({load(0x1000, noReg, 1)});
    StubMem mem;
    mem.loadFn = [](Addr, Cycle now) { return now + 100; };
    CoreConfig cfg;
    OooCore core(cfg, src, mem);
    const Cycle cycles = core.run(960);
    // 48-entry load buffer bounds MLP; far better than serial.
    EXPECT_LT(cycles, 960u * 20);
}

TEST(OooCore, LoadBufferBoundsMlp)
{
    // With a load buffer of 2, at most 2 loads in flight.
    ScriptSource src({load(0x1000, noReg, 1)});
    StubMem mem;
    mem.loadFn = [](Addr, Cycle now) { return now + 100; };
    CoreConfig cfg;
    cfg.loadBuffer = 2;
    OooCore core(cfg, src, mem);
    const Cycle cycles = core.run(200);
    // ~2 loads per 100 cycles -> >= 9000 cycles for 200 loads.
    EXPECT_GT(cycles, 9000u);
}

TEST(OooCore, RobBoundsWindow)
{
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
    OooCore core(cfg, src, mem);
    const Cycle small_rob = core.run(640);

    ScriptSource src2(prog);
    StubMem mem2;
    mem2.loadFn = [](Addr, Cycle now) { return now + 1000; };
    cfg.robEntries = 128;
    OooCore core2(cfg, src2, mem2);
    const Cycle big_rob = core2.run(640);
    EXPECT_LT(big_rob, small_rob);
}

TEST(OooCore, ImpossibleGeometryThrowsInsteadOfSpinning)
{
    // Each machine can never retire: with no event left to wait for,
    // the core must diagnose itself rather than loop forever.
    const auto stall = [](CoreConfig cfg, Uop u) {
        ScriptSource src({u});
        StubMem mem;
        OooCore core(cfg, src, mem);
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

TEST(OooCore, MispredictStallsFetch)
{
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
    OooCore c1(CoreConfig{}, ts, m1);
    const Cycle predictable = c1.run(20000);

    ScriptSource rs(random_prog);
    StubMem m2;
    OooCore c2(CoreConfig{}, rs, m2);
    const Cycle bubbly = c2.run(20000);
    EXPECT_GT(bubbly, predictable);
}

TEST(OooCore, StoresCountAndComplete)
{
    Uop st;
    st.type = UopType::Store;
    st.vaddr = 0x2000;
    ScriptSource src({st});
    StubMem mem;
    OooCore core(CoreConfig{}, src, mem);
    core.run(100);
    // run() retires at least 100; a few extra may have issued.
    EXPECT_GE(mem.stores, 100u);
    EXPECT_LE(mem.stores, 140u);
}

TEST(OooCore, RetiredUopsTracked)
{
    ScriptSource src({alu(noReg, 1)});
    StubMem mem;
    OooCore core(CoreConfig{}, src, mem);
    core.run(123);
    // Retirement is up to retireWidth per cycle, so the target can
    // be overshot by at most retireWidth - 1.
    EXPECT_GE(core.retiredUops(), 123u);
    EXPECT_LE(core.retiredUops(), 125u);
}

TEST(OooCore, IpcResetForMeasurement)
{
    ScriptSource src({alu(1, 1)}); // serial: IPC ~1
    StubMem mem;
    StatGroup stats;
    OooCore core(CoreConfig{}, src, mem, &stats);
    core.run(1000);
    stats.resetAll();
    core.resetMeasurement();
    core.run(500);
    const double ipc = core.ipc();
    EXPECT_GT(ipc, 0.8);
    EXPECT_LT(ipc, 1.2);
}

TEST(OooCore, FpLatencyLongerThanAlu)
{
    Uop fp;
    fp.type = UopType::Fp;
    fp.src0 = 1;
    fp.dst = 1; // serial FP chain
    ScriptSource fsrc({fp});
    StubMem m1;
    OooCore fcore(CoreConfig{}, fsrc, m1);
    const Cycle fp_cycles = fcore.run(1000);

    ScriptSource asrc({alu(1, 1)});
    StubMem m2;
    OooCore acore(CoreConfig{}, asrc, m2);
    const Cycle alu_cycles = acore.run(1000);
    EXPECT_GT(fp_cycles, 2 * alu_cycles);
}

/** Property: cycles scale linearly with uops for regular streams. */
class CoreLinearity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CoreLinearity, CyclesProportionalToWork)
{
    const std::uint64_t n = GetParam();
    ScriptSource src({alu(noReg, 1)});
    StubMem mem;
    OooCore core(CoreConfig{}, src, mem);
    const Cycle cycles = core.run(n);
    const double ipc = static_cast<double>(n) / cycles;
    EXPECT_GT(ipc, 2.5);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CoreLinearity,
                         ::testing::Values(300u, 3000u, 30000u));
