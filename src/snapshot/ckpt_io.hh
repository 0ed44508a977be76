/**
 * @file
 * Binary checkpoint container format (DESIGN.md §11).
 *
 * A checkpoint is a magic header, a format version, and a sequence of
 * tagged sections, each a run of checksummed chunks:
 *
 *     "CDPSNAP\n"  u32 version
 *     [ 4-byte tag | chunk... | u32 0 ]...
 *     [ "END!" trailer section with empty payload ]
 *
 *     chunk = [ u32 payload bytes (1..chunkBytes) | payload | u64 sum ]
 *
 * A section's payload is the concatenation of its chunks' payloads;
 * a value may straddle two chunks. All integers are little-endian
 * regardless of host byte order, and every multi-byte value inside a
 * payload goes through the typed Writer helpers, so serializing the
 * same machine state twice yields byte-identical files. Component
 * serializers iterate associative containers in key-sorted order
 * (enforced by cdplint's unordered-output rule), which is what makes
 * the format — and the warm-fork sweeps built on it — deterministic.
 *
 * Neither side holds more than one chunk of a section: the Writer
 * emits a chunk each time its staging buffer fills, and the Reader
 * verifies a chunk's sum before any byte of it is parsed.
 *
 * Robustness contract: a Reader fed a truncated, corrupted, or
 * version-skewed stream throws SnapshotError with a diagnostic that
 * names the failing section and payload offset. It never invokes
 * undefined behaviour and never allocates on the strength of an
 * unverified length. A corrupt later chunk surfaces after the earlier
 * chunks of its section were applied, so a failed restore leaves its
 * target machine unusable (DESIGN.md §11).
 */

#ifndef CDP_SNAPSHOT_CKPT_IO_HH
#define CDP_SNAPSHOT_CKPT_IO_HH

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hh"

namespace cdp
{
namespace snap
{

/** Current checkpoint format version (bump on layout changes). */
constexpr std::uint32_t formatVersion = 10;

/** Most payload bytes one chunk carries. */
constexpr std::size_t chunkBytes = std::size_t{64} << 10;

/**
 * The four-lane chunk sum over @p n bytes at @p p (DESIGN.md §11):
 * changing any one 8-byte word or tail byte always changes it. Every
 * chunk carries one; the STOR section's memory-image digest is built
 * from it too.
 */
std::uint64_t chunkSum(const void *p, std::size_t n);

/**
 * Any failure to serialize or deserialize a checkpoint: truncation,
 * checksum mismatch, version skew, section-tag mismatch, config
 * guard violation, or a non-quiesced machine.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Serializes one checkpoint to an ostream. Values are staged into a
 * chunkBytes buffer that goes to the stream, length-prefixed and
 * summed, each time it fills; endSection() emits the partial last
 * chunk and the closing zero length. All typed writes must happen
 * between beginSection() and endSection(); finish() writes the
 * trailer and flushes.
 */
class Writer
{
  public:
    /** Write the container header to @p os (opened in binary mode). */
    explicit Writer(std::ostream &os);

    /** Open a section; @p tag must be exactly 4 characters. */
    void beginSection(const char *tag);

    /** Emit the open section's last chunk and its closing length. */
    void endSection();

    /** Emit the end-of-checkpoint trailer section. */
    void finish();

    void u8(std::uint8_t v) { put(&v, 1); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Doubles travel as their IEEE-754 bit pattern. */
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** Length-prefixed byte string. */
    void str(const std::string &s);
    /** Raw bytes, caller knows the length (e.g. a memory frame). */
    void bytes(const std::uint8_t *p, std::size_t n) { put(p, n); }
    /** The two raw xorshift128+ state words of @p r. */
    void rng(const Rng &r);

  private:
    /** Stage @p n bytes, emitting every chunk they fill. */
    void
    put(const void *p, std::size_t n)
    {
        if (inSection && n <= chunkBytes - fill) {
            std::memcpy(chunk.get() + fill, p, n);
            fill += n;
        } else {
            putSlow(p, n);
        }
    }
    void putSlow(const void *p, std::size_t n);
    /** Emit the staged bytes as one chunk. */
    void emitChunk();

    std::ostream &os;
    std::unique_ptr<char[]> chunk; //!< chunkBytes of staging
    std::size_t fill = 0;          //!< staged bytes
    std::string curTag;
    bool inSection = false;
    bool finished = false;
};

/**
 * Deserializes one checkpoint from an istream. enterSection() reads
 * and verifies the section's first chunk; the typed reads consume it
 * and pull, verify and consume each next chunk as they reach its
 * start; leaveSection() requires the payload to be fully consumed, so
 * layout drift is caught at the section where it happens.
 */
class Reader
{
  public:
    /** Validate the container header of @p is (binary mode). */
    explicit Reader(std::istream &is);

    /** Read the next section's tag, which must be @p tag, and its
     *  first chunk. */
    void enterSection(const char *tag);

    /** Require the current section payload to be fully consumed. */
    void leaveSection();

    /** Require the end-of-checkpoint trailer. */
    void finish();

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        take(&v, 1);
        return v;
    }
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    bool boolean();
    std::string str();
    void bytes(std::uint8_t *p, std::size_t n) { take(p, n); }
    void rng(Rng &r);

    /**
     * Read a u64 and require it to equal @p expected — the geometry /
     * shape guard used by every component deserializer. @p what names
     * the field in the diagnostic.
     */
    void expectU64(std::uint64_t expected, const char *what);

    /** String flavour of expectU64 (workload names etc.). */
    void expectStr(const std::string &expected, const char *what);

    /**
     * Throw SnapshotError for a semantic problem found by a component
     * deserializer, prefixed with the current section and offset.
     */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    /** Copy the next @p n payload bytes to @p p, across chunks. */
    void
    take(void *p, std::size_t n)
    {
        if (n <= len - pos && inSection) {
            std::memcpy(p, chunk.get() + pos, n);
            pos += n;
        } else {
            takeSlow(p, n);
        }
    }
    void takeSlow(void *p, std::size_t n);
    /** Read and verify the section's next chunk. */
    void pull();

    std::istream &is;
    std::unique_ptr<char[]> chunk; //!< chunkBytes + 8: payload, sum
    std::size_t len = 0;           //!< payload bytes in the chunk
    std::size_t pos = 0;           //!< consumed bytes of it
    std::uint64_t chunkStart = 0;  //!< section offset of the chunk
    bool ended = false;            //!< the closing length was read
    std::string curTag;
    bool inSection = false;
};

} // namespace snap
} // namespace cdp

#endif // CDP_SNAPSHOT_CKPT_IO_HH
