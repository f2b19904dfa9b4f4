#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rap::util {

/// Compact dynamically-sized bit vector used as the canonical encoding of
/// model states (Petri-net markings, DFS node states) inside reachability
/// sets. Provides hashing and total ordering so it can key hash maps.
class BitVec {
public:
    static constexpr std::size_t kWordBits = 64;

    /// Number of 64-bit payload words backing `bits` bits.
    static constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
        return (bits + kWordBits - 1) / kWordBits;
    }

    BitVec() = default;
    explicit BitVec(std::size_t bits);

    std::size_t size() const noexcept { return bits_; }
    bool empty() const noexcept { return bits_ == 0; }

    // -- word-level access -------------------------------------------------
    // The compiled reachability core operates on markings a word at a time
    // (masked enable tests, memcpy into the interned store). Bits beyond
    // size() are zero and every writer must keep them zero: hashing and
    // equality read whole words.
    std::size_t word_count() const noexcept { return words_.size(); }
    std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }
    std::uint64_t* word_data() noexcept { return words_.data(); }
    const std::uint64_t* word_data() const noexcept { return words_.data(); }

    bool get(std::size_t i) const noexcept {
        return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
    }
    void set(std::size_t i, bool value) noexcept {
        const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
        if (value) {
            words_[i / kWordBits] |= mask;
        } else {
            words_[i / kWordBits] &= ~mask;
        }
    }
    void flip(std::size_t i) noexcept {
        words_[i / kWordBits] ^= std::uint64_t{1} << (i % kWordBits);
    }

    /// Number of set bits.
    std::size_t count() const noexcept;

    /// True iff no bit is set.
    bool none() const noexcept;

    /// Resets all bits to zero, keeping the size.
    void clear() noexcept;

    /// Indices of all set bits, ascending.
    std::vector<std::size_t> ones() const;

    /// FNV-1a over the payload words; stable across runs.
    std::size_t hash() const noexcept;

    /// "0101…" rendering, index 0 first — handy in failure messages.
    std::string to_string() const;

    friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
        return a.bits_ == b.bits_ && a.words_ == b.words_;
    }
    friend bool operator!=(const BitVec& a, const BitVec& b) noexcept {
        return !(a == b);
    }
    friend bool operator<(const BitVec& a, const BitVec& b) noexcept {
        if (a.bits_ != b.bits_) return a.bits_ < b.bits_;
        return a.words_ < b.words_;
    }

private:
    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

struct BitVecHash {
    std::size_t operator()(const BitVec& v) const noexcept { return v.hash(); }
};

}  // namespace rap::util
