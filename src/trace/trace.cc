#include "trace/trace.hh"

#include <cstring>
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

Uop
unpack(const Record &r)
{
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

/** Header layout: magic, version, count, tag length, tag bytes. */
void
writeU32(std::FILE *f, std::uint32_t v)
{
    if (std::fwrite(&v, sizeof(v), 1, f) != 1)
        throw std::runtime_error("trace: short write");
}

void
writeU64(std::FILE *f, std::uint64_t v)
{
    if (std::fwrite(&v, sizeof(v), 1, f) != 1)
        throw std::runtime_error("trace: short write");
}

std::uint32_t
readU32(std::FILE *f)
{
    std::uint32_t v = 0;
    if (std::fread(&v, sizeof(v), 1, f) != 1)
        throw std::runtime_error("trace: short read");
    return v;
}

std::uint64_t
readU64(std::FILE *f)
{
    std::uint64_t v = 0;
    if (std::fread(&v, sizeof(v), 1, f) != 1)
        throw std::runtime_error("trace: short read");
    return v;
}

} // namespace

// --------------------------------------------------------- TraceWriter

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &workload_tag)
    : tag(workload_tag)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        throw std::runtime_error("trace: cannot open for write: " +
                                 path);
    writeHeader();
}

TraceWriter::~TraceWriter()
{
    if (!closed) {
        try {
            close();
        } catch (...) {
            // Destructor must not throw; the file may be truncated.
        }
    }
}

void
TraceWriter::writeHeader()
{
    std::rewind(file);
    writeU32(file, traceMagic);
    writeU32(file, traceVersion);
    writeU64(file, written);
    writeU32(file, static_cast<std::uint32_t>(tag.size()));
    if (!tag.empty() &&
        std::fwrite(tag.data(), 1, tag.size(), file) != tag.size())
        throw std::runtime_error("trace: short write (tag)");
}

void
TraceWriter::append(const Uop &u)
{
    if (closed)
        throw std::logic_error("trace: append after close");
    const Record r = pack(u);
    if (std::fwrite(&r, sizeof(r), 1, file) != 1)
        throw std::runtime_error("trace: short write (record)");
    ++written;
}

void
TraceWriter::close()
{
    if (closed)
        return;
    writeHeader(); // rewrite with the final count
    if (std::fclose(file) != 0)
        throw std::runtime_error("trace: close failed");
    file = nullptr;
    closed = true;
}

// --------------------------------------------------------- TraceReader

TraceReader::TraceReader(const std::string &path)
{
    file = std::fopen(path.c_str(), "rb");
    if (!file)
        throw std::runtime_error("trace: cannot open for read: " +
                                 path);
    if (readU32(file) != traceMagic)
        throw std::runtime_error("trace: bad magic in " + path);
    if (readU32(file) != traceVersion)
        throw std::runtime_error("trace: unsupported version in " +
                                 path);
    total = readU64(file);
    const std::uint32_t tag_len = readU32(file);
    tag.resize(tag_len);
    if (tag_len &&
        std::fread(tag.data(), 1, tag_len, file) != tag_len)
        throw std::runtime_error("trace: short read (tag)");
}

TraceReader::~TraceReader()
{
    if (file)
        std::fclose(file);
}

bool
TraceReader::next(Uop &u)
{
    if (consumed >= total)
        return false;
    Record r;
    if (std::fread(&r, sizeof(r), 1, file) != 1)
        throw std::runtime_error("trace: truncated record");
    u = unpack(r);
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
