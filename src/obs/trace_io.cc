#include "obs/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/file_io.hh"

namespace cdp::obs
{

namespace
{

/** Escape for JSON string values (our names are ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Shared "args" object: provenance + address for one event. */
std::string
argsJson(const TraceEvent &e)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %llu, \"root\": %llu, \"depth\": %u, "
                  "\"hop\": %u, \"addr\": \"0x%08x\"",
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.root),
                  static_cast<unsigned>(e.depth),
                  static_cast<unsigned>(e.hop),
                  static_cast<unsigned>(e.addr));
    std::string out = buf;
    if (e.kindOf() == EventKind::Drop) {
        out += std::string(", \"reason\": \"") +
               dropReasonName(e.dropOf()) + "\"";
    } else if (e.kindOf() == EventKind::Scan ||
               e.kindOf() == EventKind::Reinforce) {
        std::snprintf(buf, sizeof(buf), ", \"aux\": %u", e.aux);
        out += buf;
    }
    out += "}";
    return out;
}

void
emitEvent(std::ostream &os, const char *ph, const std::string &name,
          const char *cat, Cycle ts, std::uint64_t tid,
          const std::string &args, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"name\": \"" << jsonEscape(name) << "\", \"cat\": \""
       << cat << "\", \"ph\": \"" << ph << "\", \"ts\": " << ts
       << ", \"pid\": 0, \"tid\": " << tid;
    if (ph[0] == 'i')
        os << ", \"s\": \"t\"";
    if (!args.empty())
        os << ", \"args\": " << args;
    os << "}";
}

} // namespace

void
writeBinaryTrace(const std::string &path,
                 const std::vector<TraceEvent> &events,
                 std::uint64_t dropped, const std::string &tag)
{
    fileio::File file = fileio::open(path, "wb", "trace_io");
    std::FILE *f = file.get();
    fileio::writeWord(f, traceEventMagic, "trace_io");
    fileio::writeWord(f, traceEventVersion, "trace_io");
    fileio::writeWord<std::uint64_t>(f, events.size(), "trace_io");
    fileio::writeWord(f, dropped, "trace_io");
    fileio::writeString(f, tag, "trace_io");
    if (!events.empty() &&
        std::fwrite(events.data(), sizeof(TraceEvent), events.size(),
                    f) != events.size())
        throw std::runtime_error("trace_io: short write (events)");
    fileio::close(file, "trace_io");
}

LoadedTrace
readBinaryTrace(const std::string &path)
{
    const fileio::File file = fileio::open(path, "rb", "trace_io");
    std::FILE *f = file.get();
    using U32 = std::uint32_t;
    using U64 = std::uint64_t;
    if (fileio::readWord<U32>(f, "trace_io") != traceEventMagic)
        throw std::runtime_error("trace_io: bad magic in " + path);
    if (fileio::readWord<U32>(f, "trace_io") != traceEventVersion)
        throw std::runtime_error("trace_io: unsupported version in " +
                                 path);
    LoadedTrace t;
    const U64 count = fileio::readWord<U64>(f, "trace_io");
    t.dropped = fileio::readWord<U64>(f, "trace_io");
    t.tag = fileio::readString(f, "trace_io", "tag length");
    fileio::requireBytes(f, count, sizeof(TraceEvent), "trace_io",
                         "event count");
    t.events.resize(count);
    if (count &&
        std::fread(t.events.data(), sizeof(TraceEvent), count, f) !=
            count)
        throw std::runtime_error("trace_io: truncated events in " +
                                 path);
    return t;
}

void
writeChromeJson(std::ostream &os, const LoadedTrace &trace)
{
    // Stable sort keeps record order among same-cycle events, so the
    // output is a pure function of the trace contents.
    std::vector<TraceEvent> sorted = trace.events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.cycle < b.cycle;
                     });

    os << "{\n  \"displayTimeUnit\": \"ns\",\n"
       << "  \"otherData\": {\"tool\": \"cdptrace\", \"tag\": \""
       << jsonEscape(trace.tag) << "\", \"dropped\": " << trace.dropped
       << "},\n  \"traceEvents\": [\n";
    bool first = true;
    for (const TraceEvent &e : sorted) {
        const std::string name = std::string(reqTypeName(e.typeOf())) +
                                 " d" + std::to_string(e.depth);
        switch (e.kindOf()) {
          case EventKind::Issue:
            // One duration track per transaction: tid = request id,
            // so the B/E pair trivially nests and never interleaves
            // with another request's pair.
            emitEvent(os, "B", name, "req", e.cycle, e.id,
                      argsJson(e), first);
            break;
          case EventKind::Fill:
            emitEvent(os, "E", name, "req", e.cycle, e.id, "", first);
            break;
          // cdplint: allow(exhaustive-switch) -- only Issue/Fill span a duration; every other kind, present or future, renders as an instant mark by design
          default:
            emitEvent(os, "i", eventKindName(e.kindOf()), "mark",
                      e.cycle, e.id, argsJson(e), first);
            break;
        }
    }
    os << "\n  ]\n}\n";
}

} // namespace cdp::obs
