/**
 * @file
 * Micro-operation (uop) definitions and the uop-source interface.
 *
 * The paper's simulator executes Long Instruction Traces through a
 * pop-level IA-32 model. Our substitution feeds the timing core from
 * *generated* uop streams: workload generators walk real data
 * structures living in the simulated memory and emit loads whose
 * addresses come from genuinely loaded pointer values, plus the ALU,
 * branch, and store padding that gives each benchmark its compute
 * density.
 */

#ifndef CDP_CPU_UOP_HH
#define CDP_CPU_UOP_HH

#include <cstdint>
#include <span>
#include <string>

#include "common/types.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/** Functional class of a uop. */
enum class UopType : std::uint8_t
{
    Alu,
    Fp,
    Load,
    Store,
    Branch,
    Nop,
};

/** Number of architectural registers modeled for dependency timing. */
constexpr unsigned numRegs = 32;

/** Register id meaning "no register". */
constexpr std::int8_t noReg = -1;

/**
 * One micro-operation. Dependencies are expressed through up to two
 * source registers and one destination register; the timing core
 * tracks per-register ready cycles, so pointer chases serialize
 * naturally (each hop's address register is written by the previous
 * hop's load).
 */
struct Uop
{
    UopType type = UopType::Nop;
    Addr pc = 0;
    Addr vaddr = 0;          //!< effective address (Load/Store only)
    std::int8_t src0 = noReg;
    std::int8_t src1 = noReg;
    std::int8_t dst = noReg;
    bool taken = false;      //!< actual branch outcome (Branch only)
    bool pointerLoad = false; //!< load of a recurrence pointer (stats)
};

/**
 * The rule every uop reader (checkpoint restore, trace replay)
 * enforces on raw fields before building a Uop: the type names a
 * UopType and each register is noReg or below numRegs. The core
 * indexes its tables with these fields unchecked.
 * @return empty when valid, else a message naming the bad field
 */
std::string uopFieldError(std::uint8_t type, std::int8_t src0,
                          std::int8_t src1, std::int8_t dst);

namespace snap
{
/** Serialize one uop field-by-field (checkpointing). */
void saveUop(Writer &w, const Uop &u);
/** Read a uop written by saveUop. */
Uop loadUop(Reader &r);
} // namespace snap

/**
 * Infinite stream of uops; workload generators implement this.
 */
class UopSource
{
  public:
    virtual ~UopSource() = default;

    /** Produce the next uop of the stream. */
    virtual Uop next() = 0;

    /**
     * Produce the next out.size() uops of the stream, in order: the
     * same uops as that many next() calls. The core fetches through
     * this; the default loops next(), and a source overrides it only
     * to hand out a batch without a virtual call per uop.
     */
    virtual void
    fill(std::span<Uop> out)
    {
        for (Uop &u : out)
            u = next();
    }

    /** Short workload name for reports. */
    virtual const char *name() const = 0;

    /**
     * Serialize generator state for checkpointing. Sources that keep
     * no replayable state (e.g. live trace capture) must override
     * with an implementation that throws SnapshotError — the defaults
     * here do exactly that so forgetting an override fails loudly
     * instead of silently desynchronizing the stream.
     */
    virtual void saveState(snap::Writer &w) const;
    virtual void loadState(snap::Reader &r);
};

} // namespace cdp

#endif // CDP_CPU_UOP_HH
