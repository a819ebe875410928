/**
 * @file
 * Stable 64-bit FNV-1a hashing for cache keys and content digests. The
 * byte stream fed to the hash is defined field-by-field by each
 * caller (never raw struct memory), so digests are independent of
 * padding, endianness of the host is normalized to little-endian
 * word folding, and a value produced today matches one produced by a
 * different build tomorrow — the property hostbench's golden digests
 * depend on.
 */

#ifndef IWC_COMMON_HASH_HH
#define IWC_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace iwc
{

/** Incremental 64-bit FNV-1a over explicitly serialized fields. */
class Fnv64
{
  public:
    static constexpr std::uint64_t kOffset = 14695981039346656037ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    void
    addByte(std::uint8_t b)
    {
        hash_ ^= b;
        hash_ *= kPrime;
    }

    /** Folds a 64-bit word little-endian byte by byte. */
    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            addByte(static_cast<std::uint8_t>(v >> (i * 8)));
    }

    /** Length-prefixed, so "ab"+"c" never collides with "a"+"bc". */
    void
    addString(std::string_view s)
    {
        add(s.size());
        for (const char c : s)
            addByte(static_cast<std::uint8_t>(c));
    }

    void
    addBytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < size; ++i)
            addByte(p[i]);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kOffset;
};

/** One-shot digest of a string (length-prefixed FNV-1a). */
inline std::uint64_t
fnv64(std::string_view s)
{
    Fnv64 h;
    h.addString(s);
    return h.value();
}

} // namespace iwc

#endif // IWC_COMMON_HASH_HH
