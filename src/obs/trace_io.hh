/**
 * @file
 * Sinks and sources for lifecycle traces.
 *
 * Binary format "CDPO" (little-endian, like the uop trace CDPT):
 *   header: u32 magic, u32 version, u64 event count, u64 dropped,
 *           u32 tag length, tag bytes (workload/config label)
 *   records: TraceEvent structs, 40 bytes each, record order
 *
 * The Chrome sink emits the `trace_event` JSON format understood by
 * chrome://tracing and Perfetto: one duration pair ("ph":"B"/"E") per
 * issued transaction on a per-request track (tid = request id, so
 * pairs always nest), and instant events ("ph":"i") for scans,
 * drops, merges, promotions, and reinforcements. Events are sorted
 * by timestamp; provenance rides in "args".
 */

#ifndef CDP_OBS_TRACE_IO_HH
#define CDP_OBS_TRACE_IO_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace cdp::obs
{

/** Binary trace-file magic and version. */
constexpr std::uint32_t traceEventMagic = 0x4f504443; // "CDPO"
constexpr std::uint32_t traceEventVersion = 1;

/** A loaded binary trace: events plus header metadata. */
struct LoadedTrace
{
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0; //!< overwritten before the dump
    std::string tag;           //!< workload/config label
};

/**
 * Write @p events as a binary trace file.
 * @throw std::runtime_error on I/O failure
 */
void writeBinaryTrace(const std::string &path,
                      const std::vector<TraceEvent> &events,
                      std::uint64_t dropped, const std::string &tag);

/**
 * Load a binary trace file; validates magic/version, and refuses a
 * tag length or event count the file cannot hold before allocating.
 * @throw std::runtime_error on I/O or format errors
 */
LoadedTrace readBinaryTrace(const std::string &path);

/**
 * Emit @p trace as Chrome trace_event JSON on @p os. Deterministic:
 * stable sort by cycle, fixed field order, no floating point.
 */
void writeChromeJson(std::ostream &os, const LoadedTrace &trace);

} // namespace cdp::obs

#endif // CDP_OBS_TRACE_IO_HH
