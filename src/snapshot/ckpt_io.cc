#include "snapshot/ckpt_io.hh"

#include <algorithm>
#include <bit>
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
constexpr std::size_t sumBytes = 8;

/** @p v in little-endian byte order (a no-op on LE hosts). */
template <typename T>
T
littleEndian(T v)
{
    if constexpr (std::endian::native == std::endian::big) {
        T r = 0;
        for (unsigned i = 0; i < sizeof(T); ++i, v >>= 8)
            r = static_cast<T>((r << 8) | (v & 0xff));
        return r;
    }
    return v;
}

template <typename T>
T
loadLe(const char *p)
{
    T v = 0;
    std::memcpy(&v, p, sizeof(v));
    return littleEndian(v);
}

template <typename T>
void
storeLe(char *out, T v)
{
    v = littleEndian(v);
    std::memcpy(out, &v, sizeof(v));
}

/** One step of the chunk sum: a bijection of @p h for a fixed @p w
 *  and of @p w for a fixed @p h (DESIGN.md §11). */
constexpr std::uint64_t
mix(std::uint64_t h, std::uint64_t w)
{
    constexpr std::uint64_t k = 0x9e3779b97f4a7c15ull; // odd
    return std::rotl((h ^ w) * k, 31);
}

} // namespace

/**
 * Chunk sum (DESIGN.md §11): four lanes from a seed that folds in the
 * length; word i of each 32-byte block goes into lane i, the words
 * and tail bytes after the last whole block into lane 0, and the
 * lanes are folded into lane 0 in order. Every step is a bijection of
 * the word it takes and of its lane, so changing any one word or
 * tail byte always changes the sum.
 */
std::uint64_t
chunkSum(const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    const std::uint64_t seed = 0xcbf29ce484222325ull ^ n;
    std::uint64_t h0 = seed, h1 = seed, h2 = seed, h3 = seed;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        h0 = mix(h0, loadLe<std::uint64_t>(p + i));
        h1 = mix(h1, loadLe<std::uint64_t>(p + i + 8));
        h2 = mix(h2, loadLe<std::uint64_t>(p + i + 16));
        h3 = mix(h3, loadLe<std::uint64_t>(p + i + 24));
    }
    for (; i + 8 <= n; i += 8)
        h0 = mix(h0, loadLe<std::uint64_t>(p + i));
    for (; i < n; ++i)
        h0 = mix(h0, static_cast<std::uint8_t>(p[i]));
    return mix(mix(mix(h0, h1), h2), h3);
}

Writer::Writer(std::ostream &os)
    : os(os), chunk(std::make_unique_for_overwrite<char[]>(chunkBytes))
{
    char header[magicLen + 4];
    std::memcpy(header, magic, magicLen);
    storeLe(header + magicLen, formatVersion);
    os.write(header, sizeof(header));
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
    os.write(tag, tagLen);
    fill = 0;
    inSection = true;
}

void
Writer::emitChunk()
{
    char head[4];
    storeLe(head, static_cast<std::uint32_t>(fill));
    char sum[sumBytes];
    storeLe(sum, chunkSum(chunk.get(), fill));
    os.write(head, sizeof(head));
    os.write(chunk.get(), static_cast<std::streamsize>(fill));
    os.write(sum, sizeof(sum));
    if (!os)
        throw SnapshotError("checkpoint write failed (section '" +
                            curTag + "')");
    fill = 0;
}

void
Writer::endSection()
{
    if (!inSection)
        throw SnapshotError("endSection with no open section");
    if (fill)
        emitChunk();
    const char closing[4] = {};
    os.write(closing, sizeof(closing));
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
Writer::putSlow(const void *p, std::size_t n)
{
    if (!inSection)
        throw SnapshotError("checkpoint value written outside a section");
    const char *in = static_cast<const char *>(p);
    while (n > chunkBytes - fill) {
        const std::size_t part = chunkBytes - fill;
        std::memcpy(chunk.get() + fill, in, part);
        fill += part;
        in += part;
        n -= part;
        emitChunk();
    }
    std::memcpy(chunk.get() + fill, in, n);
    fill += n;
}

void
Writer::u32(std::uint32_t v)
{
    v = littleEndian(v);
    put(&v, sizeof(v));
}

void
Writer::u64(std::uint64_t v)
{
    v = littleEndian(v);
    put(&v, sizeof(v));
}

void
Writer::f64(double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t),
                  "double must be 64-bit");
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Writer::str(const std::string &s)
{
    u64(s.size());
    put(s.data(), s.size());
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

Reader::Reader(std::istream &is)
    : is(is),
      chunk(std::make_unique_for_overwrite<char[]>(chunkBytes + sumBytes))
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
    const auto version = loadLe<std::uint32_t>(header + magicLen);
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
    curTag.assign(tag, tagLen);
    len = pos = 0;
    chunkStart = 0;
    ended = false;
    inSection = true;
    pull();
}

void
Reader::pull()
{
    chunkStart += len;
    len = pos = 0;
    const auto where = [this] {
        return "section '" + curTag + "' chunk at offset " +
               std::to_string(chunkStart);
    };
    char head[4];
    is.read(head, sizeof(head));
    if (is.gcount() != static_cast<std::streamsize>(sizeof(head)))
        throw SnapshotError("truncated checkpoint: " + where() +
                            " has no length");
    // The length is unverified until the sum is: bound it before
    // reading, so no value of it allocates or overruns anything.
    const auto n = loadLe<std::uint32_t>(head);
    if (n == 0) {
        ended = true;
        return;
    }
    if (n > chunkBytes)
        throw SnapshotError("corrupted checkpoint: " + where() +
                            " claims " + std::to_string(n) +
                            " bytes, more than the " +
                            std::to_string(chunkBytes) + "-byte limit");
    is.read(chunk.get(), static_cast<std::streamsize>(n + sumBytes));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got < n)
        throw SnapshotError("truncated checkpoint: " + where() +
                            " promises " + std::to_string(n) +
                            " bytes, stream has " + std::to_string(got));
    if (got != n + sumBytes)
        throw SnapshotError("truncated checkpoint: " + where() +
                            " has its checksum cut off");
    if (loadLe<std::uint64_t>(chunk.get() + n) != chunkSum(chunk.get(), n))
        throw SnapshotError("corrupted checkpoint: " + where() +
                            " fails its checksum");
    len = n;
}

void
Reader::leaveSection()
{
    if (!inSection)
        throw SnapshotError("leaveSection with no open section");
    if (pos == len && !ended)
        pull();
    if (pos != len || !ended)
        fail("section payload has unconsumed bytes — layout drift");
    inSection = false;
}

void
Reader::finish()
{
    enterSection(endTag);
    leaveSection();
}

void
Reader::takeSlow(void *p, std::size_t n)
{
    if (!inSection)
        throw SnapshotError("checkpoint value read outside a section");
    char *out = static_cast<char *>(p);
    const std::size_t want = n;
    for (;;) {
        const std::size_t part = std::min(n, len - pos);
        std::memcpy(out, chunk.get() + pos, part);
        out += part;
        pos += part;
        n -= part;
        if (n == 0)
            return;
        if (ended)
            fail("payload exhausted reading a " + std::to_string(want) +
                 "-byte value");
        pull();
    }
}

std::uint32_t
Reader::u32()
{
    std::uint32_t v = 0;
    take(&v, sizeof(v));
    return littleEndian(v);
}

std::uint64_t
Reader::u64()
{
    std::uint64_t v = 0;
    take(&v, sizeof(v));
    return littleEndian(v);
}

double
Reader::f64()
{
    return std::bit_cast<double>(u64());
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
    // Grow by at most a chunk per read, so a corrupt length allocates
    // in proportion to the bytes the section really holds.
    std::string s;
    while (s.size() < n) {
        const std::size_t at = s.size();
        s.resize(at + static_cast<std::size_t>(
                          std::min<std::uint64_t>(n - at, chunkBytes)));
        take(s.data() + at, s.size() - at);
    }
    return s;
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
                        std::to_string(chunkStart + pos) + "): " + what);
}

} // namespace snap
} // namespace cdp
