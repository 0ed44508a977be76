/**
 * @file
 * Uop-trace capture and replay.
 *
 * The paper drives its simulator from LITs — checkpoints replayed as
 * instruction streams. This module provides the equivalent facility
 * for our generated workloads: any UopSource can be captured to a
 * compact binary trace file and replayed later, byte-for-byte
 * deterministically, decoupling workload generation from timing
 * experiments (and letting a tuned uop stream be shared between
 * machines or attached to a bug report).
 *
 * File format (little-endian):
 *   header: u32 magic "CDPT", u32 version, u64 uop count,
 *           u32 tag length, tag bytes (workload tag)
 *   records: one 16-byte record per uop
 *     u8  type          (UopType)
 *     u8  flags         (bit0 taken, bit1 pointerLoad)
 *     i8  src0, src1, dst
 *     u8  pad[3]        (zero)
 *     u32 pc
 *     u32 vaddr
 *
 * Note: a trace captures the *uop stream*, not the memory image; a
 * replayed trace is only meaningful against the same simulated heap
 * contents (same workload spec and seed), which the header's
 * workload tag records.
 */

#ifndef CDP_TRACE_TRACE_HH
#define CDP_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.hh"
#include "cpu/uop.hh"

namespace cdp
{

/** Trace-file magic and version. */
constexpr std::uint32_t traceMagic = 0x54504443; // "CDPT"
constexpr std::uint32_t traceVersion = 1;

/**
 * Writes uops to a trace file.
 */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing.
     * @param workload_tag workload name + seed recorded in the header
     * @throw std::runtime_error when the file cannot be opened
     */
    TraceWriter(const std::string &path,
                const std::string &workload_tag);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one uop. */
    void append(const Uop &u);

    /** Finalize the header (uop count) and close. */
    void close();

    std::uint64_t count() const { return written; }

  private:
    void writeHeader();

    fileio::File file;
    std::string tag;
    std::uint64_t written = 0;
};

/**
 * Reads a trace file; validates magic/version on open. Refuses, naming
 * the field, a header length the file cannot hold and a record no uop
 * can carry (uopFieldError, as checkpoint restore does).
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    /**
     * Read the next uop.
     * @return false at end of trace.
     */
    bool next(Uop &u);

    std::uint64_t count() const { return total; }
    const std::string &workloadTag() const { return tag; }

  private:
    fileio::File file;
    std::uint64_t total = 0;
    std::uint64_t consumed = 0;
    std::string tag;
};

/**
 * UopSource replaying a trace file; loops back to the start when the
 * trace is exhausted (workload streams are conceptually infinite).
 */
class TraceSource : public UopSource
{
  public:
    explicit TraceSource(const std::string &path);

    Uop next() override;
    const char *name() const override { return sourceName.c_str(); }

    /** Times the trace wrapped back to its beginning. */
    std::uint64_t wraps() const { return wrapCount; }

  private:
    std::string path;
    std::string sourceName;
    std::unique_ptr<TraceReader> reader;
    std::uint64_t wrapCount = 0;
};

/**
 * Pass-through UopSource that captures everything it forwards,
 * including uops a batched fetch buffers but the run never retires
 * (a replay of the same length reads the same prefix).
 */
class CapturingSource : public UopSource
{
  public:
    CapturingSource(UopSource &inner, const std::string &path,
                    const std::string &workload_tag);

    Uop next() override;
    /** Forwards the batch to the inner source, then records it. */
    void fill(std::span<Uop> out) override;
    const char *name() const override { return inner.name(); }

    /** Stop capturing and finalize the file. */
    void finish() { writer.close(); }

    std::uint64_t captured() const { return writer.count(); }

  private:
    UopSource &inner;
    TraceWriter writer;
};

} // namespace cdp

#endif // CDP_TRACE_TRACE_HH
