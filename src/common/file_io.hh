/**
 * @file
 * Owned stdio handles and host-endian word and string I/O, shared by
 * the two binary trace formats (uop trace CDPT, lifecycle trace
 * CDPO). Every failure throws std::runtime_error prefixed with the
 * caller's @p who label. Lengths read from a file are untrusted:
 * requireBytes() refuses a claim the rest of the file cannot hold,
 * before anything is allocated for it.
 */

#ifndef CDP_COMMON_FILE_IO_HH
#define CDP_COMMON_FILE_IO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

namespace cdp::fileio
{

struct Closer
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
/** An owned stdio handle, closed on every path (errors included). */
using File = std::unique_ptr<std::FILE, Closer>;

/** fopen @p path in @p mode ("rb" or "wb"); throws naming it. */
inline File
open(const std::string &path, const char *mode, const char *who)
{
    File f(std::fopen(path.c_str(), mode));
    if (!f)
        throw std::runtime_error(
            std::string(who) + ": cannot open for " +
            (mode[0] == 'r' ? "read: " : "write: ") + path);
    return f;
}

/** Close @p f, throwing if the buffered tail failed to reach it. */
inline void
close(File &f, const char *who)
{
    if (std::fclose(f.release()) != 0)
        throw std::runtime_error(std::string(who) + ": close failed");
}

template <typename T>
void
writeWord(std::FILE *f, T v, const char *who)
{
    if (std::fwrite(&v, sizeof(v), 1, f) != 1)
        throw std::runtime_error(std::string(who) + ": short write");
}

template <typename T>
T
readWord(std::FILE *f, const char *who)
{
    T v{};
    if (std::fread(&v, sizeof(v), 1, f) != 1)
        throw std::runtime_error(std::string(who) + ": short read");
    return v;
}

/**
 * Throw unless @p count items of @p item_bytes each fit between the
 * position of @p f and its end, naming the header @p field that
 * claimed them. Overflow-safe for any count.
 */
inline void
requireBytes(std::FILE *f, std::uint64_t count, std::uint64_t item_bytes,
             const char *who, const char *field)
{
    const long here = std::ftell(f);
    long end = -1;
    if (here >= 0 && std::fseek(f, 0, SEEK_END) == 0)
        end = std::ftell(f);
    if (end < here || std::fseek(f, here, SEEK_SET) != 0)
        throw std::runtime_error(std::string(who) + ": cannot seek");
    const auto left = static_cast<std::uint64_t>(end - here);
    if (count > left / item_bytes)
        throw std::runtime_error(
            std::string(who) + ": " + field + " claims " +
            std::to_string(count) + " x " + std::to_string(item_bytes) +
            " bytes but only " + std::to_string(left) + " remain");
}

/** Write @p s as a u32 length followed by its bytes. */
inline void
writeString(std::FILE *f, const std::string &s, const char *who)
{
    writeWord(f, static_cast<std::uint32_t>(s.size()), who);
    if (std::fwrite(s.data(), 1, s.size(), f) != s.size())
        throw std::runtime_error(std::string(who) + ": short write");
}

/** Read a string written by writeString; @p field names its length
 *  in errors. */
inline std::string
readString(std::FILE *f, const char *who, const char *field)
{
    const auto len = readWord<std::uint32_t>(f, who);
    requireBytes(f, len, 1, who, field);
    std::string s(len, '\0');
    if (std::fread(s.data(), 1, len, f) != len)
        throw std::runtime_error(std::string(who) + ": short read");
    return s;
}

} // namespace cdp::fileio

#endif // CDP_COMMON_FILE_IO_HH
