#include "trace/trace.hh"

#include <stdexcept>

namespace cdp
{

namespace
{

/** On-disk uop record (fixed 16 bytes including pc/vaddr). */
struct Record
{
    std::uint8_t type;
    std::uint8_t flags;
    std::int8_t src0;
    std::int8_t src1;
    std::int8_t dst;
    std::uint8_t pad[3];
    std::uint32_t pc;
    std::uint32_t vaddr;
};
static_assert(sizeof(Record) == 16, "trace record must be 16 bytes");

Record
pack(const Uop &u)
{
    Record r{};
    r.type = static_cast<std::uint8_t>(u.type);
    r.flags = (u.taken ? 1u : 0u) | (u.pointerLoad ? 2u : 0u);
    r.src0 = u.src0;
    r.src1 = u.src1;
    r.dst = u.dst;
    r.pc = u.pc;
    r.vaddr = u.vaddr;
    return r;
}

/** Flag bits a record may carry: bit0 taken, bit1 pointerLoad. */
constexpr std::uint8_t knownFlags = 3;

/** Decode record @p index, refusing any field no uop can hold. */
Uop
unpack(const Record &r, std::uint64_t index)
{
    std::string bad = uopFieldError(r.type, r.src0, r.src1, r.dst);
    if (bad.empty() && (r.flags & ~knownFlags) != 0)
        bad = "unknown uop flag bits " + std::to_string(r.flags);
    if (!bad.empty())
        throw std::runtime_error("trace: record " +
                                 std::to_string(index) + ": " + bad);
    Uop u;
    u.type = static_cast<UopType>(r.type);
    u.taken = (r.flags & 1u) != 0;
    u.pointerLoad = (r.flags & 2u) != 0;
    u.src0 = r.src0;
    u.src1 = r.src1;
    u.dst = r.dst;
    u.pc = r.pc;
    u.vaddr = r.vaddr;
    return u;
}

} // namespace

// --------------------------------------------------------- TraceWriter

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &workload_tag)
    : file(fileio::open(path, "wb", "trace")), tag(workload_tag)
{
    writeHeader();
}

TraceWriter::~TraceWriter()
{
    try {
        close();
    } catch (...) {
        // Destructor must not throw; the file may be truncated.
    }
}

void
TraceWriter::writeHeader()
{
    std::FILE *f = file.get();
    std::rewind(f);
    fileio::writeWord(f, traceMagic, "trace");
    fileio::writeWord(f, traceVersion, "trace");
    fileio::writeWord(f, written, "trace");
    fileio::writeString(f, tag, "trace");
}

void
TraceWriter::append(const Uop &u)
{
    if (!file)
        throw std::logic_error("trace: append after close");
    const Record r = pack(u);
    if (std::fwrite(&r, sizeof(r), 1, file.get()) != 1)
        throw std::runtime_error("trace: short write (record)");
    ++written;
}

void
TraceWriter::close()
{
    if (!file)
        return;
    writeHeader(); // rewrite with the final count
    fileio::close(file, "trace");
}

// --------------------------------------------------------- TraceReader

TraceReader::TraceReader(const std::string &path)
    : file(fileio::open(path, "rb", "trace"))
{
    std::FILE *f = file.get();
    using U32 = std::uint32_t;
    if (fileio::readWord<U32>(f, "trace") != traceMagic)
        throw std::runtime_error("trace: bad magic in " + path);
    if (fileio::readWord<U32>(f, "trace") != traceVersion)
        throw std::runtime_error("trace: unsupported version in " +
                                 path);
    total = fileio::readWord<std::uint64_t>(f, "trace");
    tag = fileio::readString(f, "trace", "tag length");
    fileio::requireBytes(f, total, sizeof(Record), "trace", "uop count");
}

bool
TraceReader::next(Uop &u)
{
    if (consumed >= total)
        return false;
    Record r;
    if (std::fread(&r, sizeof(r), 1, file.get()) != 1)
        throw std::runtime_error("trace: truncated record");
    u = unpack(r, consumed);
    ++consumed;
    return true;
}

// --------------------------------------------------------- TraceSource

TraceSource::TraceSource(const std::string &path)
    : path(path), reader(std::make_unique<TraceReader>(path))
{
    if (reader->count() == 0)
        throw std::runtime_error("trace: empty trace: " + path);
    sourceName = "trace:" + reader->workloadTag();
}

Uop
TraceSource::next()
{
    Uop u;
    if (!reader->next(u)) {
        reader = std::make_unique<TraceReader>(path);
        ++wrapCount;
        if (!reader->next(u))
            throw std::runtime_error("trace: empty after reopen");
    }
    return u;
}

// ----------------------------------------------------- CapturingSource

CapturingSource::CapturingSource(UopSource &inner,
                                 const std::string &path,
                                 const std::string &workload_tag)
    : inner(inner), writer(path, workload_tag)
{
}

Uop
CapturingSource::next()
{
    const Uop u = inner.next();
    writer.append(u);
    return u;
}

void
CapturingSource::fill(std::span<Uop> out)
{
    inner.fill(out);
    for (const Uop &u : out)
        writer.append(u);
}

} // namespace cdp
