/**
 * @file
 * The request-lifecycle event tracer.
 *
 * One Tracer instance lives inside each MemorySystem (no globals —
 * simulations fan out across the src/runner thread pool), collecting
 * TraceEvents into a bounded in-memory ring buffer. Sinks convert the
 * buffer after the run: a compact binary file and Chrome
 * `trace_event` JSON (obs/trace_io.hh), both driven by tools/cdptrace
 * or programmatically.
 *
 * Overhead contract (DESIGN.md §9):
 *  - compiled out (`-DCDP_ENABLE_TRACE=OFF`): record() is an empty
 *    inline function and every `if (tracer.active())` guard folds to
 *    `if (false)` — zero instructions on any simulation path;
 *  - compiled in, runtime-disabled (the default): active() is a
 *    single bool load, the only cost on hot paths (<1% on
 *    bench_headline);
 *  - enabled: one 40-byte store per event into a preallocated ring;
 *    when the ring wraps, the oldest events are overwritten and
 *    counted in dropped().
 *
 * The tracer is a pure observer: enabling it never changes simulated
 * timing, counters, or stats — byte-identical dumps with tracing on,
 * off, or compiled out.
 */

#ifndef CDP_OBS_TRACER_HH
#define CDP_OBS_TRACER_HH

#include <cstdint>
#include <vector>

#include "obs/event.hh"

#ifdef CDP_ENABLE_TRACE
#define CDP_TRACE_ENABLED 1
#else
#define CDP_TRACE_ENABLED 0
#endif

namespace cdp::obs
{

/** Runtime knobs of the tracer (SimConfig::trace). */
struct TraceConfig
{
    /** Master runtime switch; off by default (observer stays cold). */
    bool enabled = false;
    /**
     * Ring capacity in events (40 B each). When full the ring wraps,
     * overwriting the oldest events; Tracer::dropped() reports how
     * many were lost. Pairing-sensitive consumers (the fuzz
     * well-formedness pass, cdptrace summaries) should size the ring
     * to the run.
     */
    std::uint64_t bufferEvents = 1u << 16;

    bool operator==(const TraceConfig &) const = default;
};

/**
 * Bounded event recorder. See the file comment for the overhead
 * contract; see MemorySystem for the emission points.
 */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &cfg = TraceConfig{})
        : cfg(cfg)
    {
    }

    /** True when events are both compiled in and runtime-enabled. */
    bool
    active() const
    {
#if CDP_TRACE_ENABLED
        return cfg.enabled;
#else
        return false;
#endif
    }

    /** Append one event (no-op when not active()). */
    void
    record(EventKind k, Cycle cycle, Addr addr, ReqId id, ReqId root,
           ReqType type, unsigned depth, unsigned hop,
           std::uint32_t aux = 0)
    {
#if CDP_TRACE_ENABLED
        if (!cfg.enabled)
            return;
        TraceEvent e{};
        e.cycle = cycle;
        e.id = id;
        e.root = root;
        e.addr = addr;
        e.aux = aux;
        e.kind = static_cast<std::uint8_t>(k);
        e.rtype = static_cast<std::uint8_t>(type);
        e.depth = static_cast<std::uint8_t>(depth > 255 ? 255 : depth);
        e.hop = static_cast<std::uint8_t>(hop > 255 ? 255 : hop);
        push(e);
#else
        (void)k; (void)cycle; (void)addr; (void)id; (void)root;
        (void)type; (void)depth; (void)hop; (void)aux;
#endif
    }

    /** Events currently held (≤ bufferEvents). */
    std::uint64_t size() const { return buf.size(); }

    /** Events overwritten after the ring wrapped. */
    std::uint64_t dropped() const { return overwritten; }

    /** Total events ever recorded (size() + dropped()). */
    std::uint64_t recorded() const { return buf.size() + overwritten; }

    /**
     * Copy out the retained events in record order (oldest first).
     * The ring is left untouched, so sinks and tests can snapshot
     * repeatedly.
     */
    std::vector<TraceEvent>
    snapshot() const
    {
        std::vector<TraceEvent> out;
        out.reserve(buf.size());
        for (std::size_t i = 0; i < buf.size(); ++i)
            out.push_back(buf[(head + i) % buf.size()]);
        return out;
    }

    /** Drop every retained event and the overwrite count. */
    void
    clear()
    {
        buf.clear();
        head = 0;
        overwritten = 0;
    }

    const TraceConfig &config() const { return cfg; }

  private:
    void
    push(const TraceEvent &e)
    {
        if (buf.size() < cfg.bufferEvents) {
            buf.push_back(e);
            return;
        }
        if (buf.empty())
            return; // bufferEvents == 0: tracing effectively off
        buf[head] = e;
        head = (head + 1) % buf.size();
        ++overwritten;
    }

    TraceConfig cfg;
    /** Grows to bufferEvents, then becomes a circular buffer. */
    std::vector<TraceEvent> buf;
    std::size_t head = 0; //!< oldest event once the ring has wrapped
    std::uint64_t overwritten = 0;
};

} // namespace cdp::obs

#endif // CDP_OBS_TRACER_HH
