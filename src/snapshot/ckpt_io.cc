#include "snapshot/ckpt_io.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

namespace cdp
{
namespace snap
{

namespace
{

constexpr char magic[] = "CDPSNAP\n"; // 8 bytes, no terminator written
constexpr std::size_t magicLen = 8;
constexpr char endTag[] = "END!";
constexpr std::size_t tagLen = 4;

/** Bytes read per step before the stream has proven it holds more. */
constexpr std::size_t readChunk = std::size_t{16} << 20;

/** Little-endian u64 at @p p (compiles to one load on LE hosts). */
std::uint64_t
loadLe64(const char *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
             << (8 * i);
    return v;
}

void
storeLe64(char *out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/**
 * Section checksum (DESIGN.md §11): h = rotl((h ^ w) * k, 31) over the
 * payload's little-endian 8-byte words, then over its tail bytes, from
 * a seed that folds in the length. Each step is a bijection of h for a
 * fixed word and of the word for a fixed h, so changing any one word
 * or tail byte always changes the sum.
 */
std::uint64_t
checksum(const char *p, std::size_t n)
{
    constexpr std::uint64_t k = 0x9e3779b97f4a7c15ull; // odd
    std::uint64_t h = 0xcbf29ce484222325ull ^ n;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        h = std::rotl((h ^ loadLe64(p + i)) * k, 31);
    for (; i < n; ++i)
        h = std::rotl((h ^ static_cast<std::uint8_t>(p[i])) * k, 31);
    return h;
}

void
putLe32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putLe64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

} // namespace

Writer::Writer(std::ostream &os) : os(os)
{
    std::string header(magic, magicLen);
    putLe32(header, formatVersion);
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    if (!os)
        throw SnapshotError("checkpoint write failed (header)");
}

void
Writer::beginSection(const char *tag)
{
    if (finished)
        throw SnapshotError("checkpoint writer already finished");
    if (inSection)
        throw SnapshotError("checkpoint section '" + curTag +
                            "' still open");
    if (std::strlen(tag) != tagLen)
        throw SnapshotError(std::string("bad section tag '") + tag + "'");
    curTag.assign(tag, tagLen);
    buf.clear();
    inSection = true;
}

void
Writer::endSection()
{
    if (!inSection)
        throw SnapshotError("endSection with no open section");
    char head[tagLen + 8];
    std::memcpy(head, curTag.data(), tagLen);
    storeLe64(head + tagLen, buf.size());
    char sum[8];
    storeLe64(sum, checksum(buf.data(), buf.size()));
    os.write(head, sizeof(head));
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    os.write(sum, sizeof(sum));
    if (!os)
        throw SnapshotError("checkpoint write failed (section '" +
                            curTag + "')");
    inSection = false;
}

void
Writer::finish()
{
    beginSection(endTag);
    endSection();
    os.flush();
    if (!os)
        throw SnapshotError("checkpoint write failed (trailer)");
    finished = true;
}

void
Writer::raw(const void *p, std::size_t n)
{
    if (!inSection)
        throw SnapshotError("checkpoint value written outside a section");
    buf.append(static_cast<const char *>(p), n);
}

void
Writer::u8(std::uint8_t v)
{
    raw(&v, 1);
}

void
Writer::u32(std::uint32_t v)
{
    if (!inSection)
        throw SnapshotError("checkpoint value written outside a section");
    putLe32(buf, v);
}

void
Writer::u64(std::uint64_t v)
{
    if (!inSection)
        throw SnapshotError("checkpoint value written outside a section");
    putLe64(buf, v);
}

void
Writer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::boolean(bool v)
{
    u8(v ? 1 : 0);
}

void
Writer::str(const std::string &s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

void
Writer::bytes(const std::uint8_t *p, std::size_t n)
{
    raw(p, n);
}

void
Writer::rng(const Rng &r)
{
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
    r.getState(s0, s1);
    u64(s0);
    u64(s1);
}

Reader::Reader(std::istream &is) : is(is)
{
    char header[magicLen + 4];
    is.read(header, sizeof(header));
    if (is.gcount() != static_cast<std::streamsize>(sizeof(header)))
        throw SnapshotError(
            "truncated checkpoint: stream ends inside the header "
            "(not a checkpoint file?)");
    if (std::memcmp(header, magic, magicLen) != 0)
        throw SnapshotError(
            "bad checkpoint magic: this is not a CDP checkpoint file");
    std::uint32_t version = 0;
    for (unsigned i = 0; i < 4; ++i)
        version |= static_cast<std::uint32_t>(
                       static_cast<std::uint8_t>(header[magicLen + i]))
                   << (8 * i);
    if (version != formatVersion)
        throw SnapshotError(
            "checkpoint format version skew: file has version " +
            std::to_string(version) + ", this binary reads version " +
            std::to_string(formatVersion) +
            " (re-create the checkpoint with a matching build)");
}

void
Reader::enterSection(const char *tag)
{
    if (inSection)
        throw SnapshotError("checkpoint section '" + curTag +
                            "' still open");
    char frameTag[tagLen];
    is.read(frameTag, tagLen);
    if (is.gcount() != static_cast<std::streamsize>(tagLen))
        throw SnapshotError(
            std::string("truncated checkpoint: stream ends where "
                        "section '") +
            tag + "' was expected");
    if (std::memcmp(frameTag, tag, tagLen) != 0)
        throw SnapshotError(
            std::string("checkpoint section mismatch: expected '") + tag +
            "', found '" + std::string(frameTag, tagLen) +
            "' (file written by an incompatible layout?)");
    char lenBytes[8];
    is.read(lenBytes, 8);
    if (is.gcount() != 8)
        throw SnapshotError(std::string("truncated checkpoint: section '") +
                            tag + "' header is cut off");
    const std::uint64_t len = loadLe64(lenBytes);
    // The length is untrusted: read in chunks no larger than what the
    // stream has already delivered (or readChunk), so a hostile length
    // allocates at most max(readChunk, twice what the stream holds).
    payload.clear();
    while (payload.size() < len) {
        const std::size_t have = payload.size();
        const std::size_t step = static_cast<std::size_t>(
            std::min<std::uint64_t>(len - have,
                                    std::max(have, readChunk)));
        payload.resize(have + step);
        is.read(&payload[have], static_cast<std::streamsize>(step));
        if (is.gcount() != static_cast<std::streamsize>(step))
            throw SnapshotError(
                std::string("truncated checkpoint: section '") + tag +
                "' promises " + std::to_string(len) +
                " bytes, stream has " +
                std::to_string(have + static_cast<std::size_t>(
                                          is.gcount())));
    }
    char sumBytes[8];
    is.read(sumBytes, 8);
    if (is.gcount() != 8)
        throw SnapshotError(std::string("truncated checkpoint: section '") +
                            tag + "' checksum is cut off");
    if (loadLe64(sumBytes) != checksum(payload.data(), payload.size()))
        throw SnapshotError(std::string("corrupted checkpoint: section '") +
                            tag + "' fails its checksum");
    curTag.assign(tag, tagLen);
    pos = 0;
    inSection = true;
}

void
Reader::leaveSection()
{
    if (!inSection)
        throw SnapshotError("leaveSection with no open section");
    if (pos != payload.size())
        fail("section payload has " +
             std::to_string(payload.size() - pos) +
             " unconsumed byte(s) — layout drift");
    inSection = false;
}

void
Reader::finish()
{
    enterSection(endTag);
    leaveSection();
}

void
Reader::need(std::size_t n)
{
    if (!inSection)
        throw SnapshotError("checkpoint value read outside a section");
    if (payload.size() - pos < n)
        fail("payload exhausted reading a " + std::to_string(n) +
             "-byte value");
}

std::uint8_t
Reader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(payload[pos++]);
}

std::uint32_t
Reader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(payload[pos + i]))
             << (8 * i);
    pos += 4;
    return v;
}

std::uint64_t
Reader::u64()
{
    need(8);
    const std::uint64_t v = loadLe64(payload.data() + pos);
    pos += 8;
    return v;
}

double
Reader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
Reader::boolean()
{
    const std::uint8_t v = u8();
    if (v > 1)
        fail("boolean encoded as " + std::to_string(v));
    return v != 0;
}

std::string
Reader::str()
{
    const std::uint64_t n = u64();
    need(n);
    std::string s = payload.substr(pos, n);
    pos += n;
    return s;
}

void
Reader::bytes(std::uint8_t *p, std::size_t n)
{
    need(n);
    std::memcpy(p, payload.data() + pos, n);
    pos += n;
}

void
Reader::rng(Rng &r)
{
    const std::uint64_t s0 = u64();
    const std::uint64_t s1 = u64();
    r.setState(s0, s1);
}

void
Reader::expectU64(std::uint64_t expected, const char *what)
{
    const std::uint64_t found = u64();
    if (found != expected)
        fail(std::string(what) + " mismatch: checkpoint has " +
             std::to_string(found) + ", this simulator has " +
             std::to_string(expected));
}

void
Reader::expectStr(const std::string &expected, const char *what)
{
    const std::string found = str();
    if (found != expected)
        fail(std::string(what) + " mismatch: checkpoint has '" + found +
             "', this simulator has '" + expected + "'");
}

void
Reader::fail(const std::string &what) const
{
    throw SnapshotError("checkpoint section '" + curTag + "' (offset " +
                        std::to_string(pos) + "): " + what);
}

} // namespace snap
} // namespace cdp
