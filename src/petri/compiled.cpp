#include "petri/compiled.hpp"

#include <algorithm>
#include <cstring>

#include "util/bitvec.hpp"

namespace rap::petri {

namespace {

constexpr std::size_t kWordBits = util::BitVec::kWordBits;

/// Collapses a sorted place list into per-word masks, appended to `out`.
template <typename TermT, typename Assign>
void pack_terms(const std::vector<PlaceId>& places, std::vector<TermT>& out,
                std::size_t first, Assign assign) {
    for (PlaceId p : places) {
        const std::uint32_t word =
            static_cast<std::uint32_t>(p.value / kWordBits);
        const std::uint64_t bit = std::uint64_t{1} << (p.value % kWordBits);
        if (out.size() > first && out.back().word == word) {
            assign(out.back(), bit);
        } else {
            TermT term{};
            term.word = word;
            assign(term, bit);
            out.push_back(term);
        }
    }
}

/// FNV-1a over a length-prefixed id list — the structure digest's
/// building block (length prefixes keep adjacent lists unambiguous).
void fold_places(std::uint64_t& h, const std::vector<PlaceId>& places) {
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    h ^= places.size();
    h *= kPrime;
    for (PlaceId p : places) {
        h ^= p.value;
        h *= kPrime;
    }
}

/// True iff the two nets have the same place and transition counts and
/// the same preset, postset and readset for every transition — all a
/// CompiledNet encodes. Initial markings may differ.
bool same_arcs(const Net& a, const Net& b) {
    if (a.place_count() != b.place_count() ||
        a.transition_count() != b.transition_count()) {
        return false;
    }
    for (std::uint32_t ti = 0;
         ti < static_cast<std::uint32_t>(a.transition_count()); ++ti) {
        const TransitionId t{ti};
        if (a.preset(t) != b.preset(t) || a.postset(t) != b.postset(t) ||
            a.readset(t) != b.readset(t)) {
            return false;
        }
    }
    return true;
}

}  // namespace

std::uint64_t CompiledNet::digest_structure(const Net& net) noexcept {
    std::uint64_t h = 14695981039346656037ULL;
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    h ^= net.place_count();
    h *= kPrime;
    h ^= net.transition_count();
    h *= kPrime;
    for (std::uint32_t ti = 0;
         ti < static_cast<std::uint32_t>(net.transition_count()); ++ti) {
        const TransitionId t{ti};
        fold_places(h, net.preset(t));
        fold_places(h, net.postset(t));
        fold_places(h, net.readset(t));
    }
    return h;
}

CompiledNet::CompiledNet(const Net& net)
    : net_(&net),
      place_count_(net.place_count()),
      transition_count_(net.transition_count()),
      marking_words_(util::BitVec::words_for_bits(place_count_)),
      enabled_words_(util::BitVec::words_for_bits(transition_count_)) {
    require_off_.reserve(transition_count_ + 1);
    forbid_off_.reserve(transition_count_ + 1);
    effect_off_.reserve(transition_count_ + 1);

    std::vector<PlaceId> require_places;
    std::vector<PlaceId> forbid_places;
    for (std::uint32_t ti = 0; ti < transition_count_; ++ti) {
        const TransitionId t{ti};
        const auto& pre = net.preset(t);
        const auto& post = net.postset(t);
        const auto& read = net.readset(t);

        require_off_.push_back(static_cast<std::uint32_t>(require_.size()));
        forbid_off_.push_back(static_cast<std::uint32_t>(forbid_.size()));
        effect_off_.push_back(static_cast<std::uint32_t>(effect_.size()));

        // require = pre ∪ read (both sorted; merge keeps word order).
        require_places.clear();
        std::set_union(pre.begin(), pre.end(), read.begin(), read.end(),
                       std::back_inserter(require_places));
        pack_terms(require_places, require_, require_off_.back(),
                   [](Term& term, std::uint64_t bit) { term.mask |= bit; });

        // forbid = post ∖ pre (contact-freeness).
        forbid_places.clear();
        std::set_difference(post.begin(), post.end(), pre.begin(),
                            pre.end(), std::back_inserter(forbid_places));
        pack_terms(forbid_places, forbid_, forbid_off_.back(),
                   [](Term& term, std::uint64_t bit) { term.mask |= bit; });

        // Firing effect, word-aligned across consume and produce masks.
        pack_terms(pre, effect_, effect_off_.back(),
                   [](Effect& e, std::uint64_t bit) { e.clear_mask |= bit; });
        for (PlaceId p : post) {
            const std::uint32_t word =
                static_cast<std::uint32_t>(p.value / kWordBits);
            const std::uint64_t bit = std::uint64_t{1}
                                      << (p.value % kWordBits);
            auto it = std::find_if(
                effect_.begin() + effect_off_.back(), effect_.end(),
                [word](const Effect& e) { return e.word == word; });
            if (it == effect_.end()) {
                effect_.push_back({word, 0, bit});
            } else {
                it->set_mask |= bit;
            }
        }
    }
    require_off_.push_back(static_cast<std::uint32_t>(require_.size()));
    forbid_off_.push_back(static_cast<std::uint32_t>(forbid_.size()));
    effect_off_.push_back(static_cast<std::uint32_t>(effect_.size()));

    // Per transition, the affected-transition CSR and the disables rows,
    // from the places' readers (consume / read / produce-contact).
    const PlaceReaders readers(net);
    affected_off_.reserve(transition_count_ + 1);
    disables_.assign(transition_count_ * enabled_words_, 0);
    std::vector<std::uint32_t> scratch;
    for (std::uint32_t ti = 0; ti < transition_count_; ++ti) {
        affected_off_.push_back(static_cast<std::uint32_t>(affected_.size()));
        index_toggles(net, ti, readers, scratch);
    }
    affected_off_.push_back(static_cast<std::uint32_t>(affected_.size()));
}

CompiledNet::CompiledNet(const Net& net, const CompiledNet& parent)
    : CompiledNet(same_arcs(net, parent.net()) ? parent : CompiledNet(net)) {
    // A same-arc parent's tables are this net's verbatim: only the
    // initial marking can differ, and no table encodes it.
    net_ = &net;
}

void CompiledNet::index_toggles(const Net& net, std::uint32_t ti,
                                const PlaceReaders& readers,
                                std::vector<std::uint32_t>& scratch) {
    // A firing of t unmarks toff(t) = pre ∖ post and marks
    // ton(t) = post ∖ pre (pre ∩ post places end up marked again).
    // affected(t) gathers every reader of those places; disables(t) only
    // the ones the toggle goes against: requirers of toff, forbidders
    // of ton.
    const TransitionId t{ti};
    const auto& pre = net.preset(t);
    const auto& post = net.postset(t);
    std::uint64_t* row =
        disables_.data() + std::size_t{ti} * enabled_words_;
    scratch.clear();
    auto toggle = [&](PlaceId p, std::span<const std::uint32_t> against) {
        const auto req = readers.require(p);
        const auto fbd = readers.forbid(p);
        scratch.insert(scratch.end(), req.begin(), req.end());
        scratch.insert(scratch.end(), fbd.begin(), fbd.end());
        for (const std::uint32_t u : against) {
            row[u / kWordBits] |= std::uint64_t{1} << (u % kWordBits);
        }
    };
    for (PlaceId p : pre) {
        if (!std::binary_search(post.begin(), post.end(), p)) {
            toggle(p, readers.require(p));
        }
    }
    for (PlaceId p : post) {
        if (!std::binary_search(pre.begin(), pre.end(), p)) {
            toggle(p, readers.forbid(p));
        }
    }
    row[ti / kWordBits] &= ~(std::uint64_t{1} << (ti % kWordBits));
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    affected_.insert(affected_.end(), scratch.begin(), scratch.end());
}

CompiledNet::PlaceReaders::PlaceReaders(const Net& net) {
    const std::size_t places = net.place_count();
    const auto transitions =
        static_cast<std::uint32_t>(net.transition_count());
    // Visits every (place, reader) pair in ascending transition order;
    // run once to count, once to fill.
    auto each_reader = [&](auto&& on_require, auto&& on_forbid) {
        for (std::uint32_t ti = 0; ti < transitions; ++ti) {
            const TransitionId t{ti};
            const auto& pre = net.preset(t);
            auto in_pre = [&](PlaceId p) {
                return std::binary_search(pre.begin(), pre.end(), p);
            };
            for (PlaceId p : pre) on_require(p.value, ti);
            for (PlaceId p : net.readset(t)) {
                if (!in_pre(p)) on_require(p.value, ti);
            }
            for (PlaceId p : net.postset(t)) {
                if (!in_pre(p)) on_forbid(p.value, ti);
            }
        }
    };
    require_off.assign(places + 1, 0);
    forbid_off.assign(places + 1, 0);
    each_reader(
        [&](std::uint32_t p, std::uint32_t) { ++require_off[p + 1]; },
        [&](std::uint32_t p, std::uint32_t) { ++forbid_off[p + 1]; });
    for (std::size_t p = 0; p < places; ++p) {
        require_off[p + 1] += require_off[p];
        forbid_off[p + 1] += forbid_off[p];
    }
    requirers.resize(require_off[places]);
    forbidders.resize(forbid_off[places]);
    std::vector<std::uint32_t> require_at(require_off.begin(),
                                          require_off.end() - 1);
    std::vector<std::uint32_t> forbid_at(forbid_off.begin(),
                                         forbid_off.end() - 1);
    each_reader(
        [&](std::uint32_t p, std::uint32_t t) {
            requirers[require_at[p]++] = t;
        },
        [&](std::uint32_t p, std::uint32_t t) {
            forbidders[forbid_at[p]++] = t;
        });
}

// is_enabled, fire and enabled_set start on a 64-byte boundary, so code
// added elsewhere in the library cannot move their cache-line or decoder
// phase (BM_CompiledFire times these three alone).
__attribute__((aligned(64)))
bool CompiledNet::is_enabled(const std::uint64_t* marking,
                             TransitionId t) const noexcept {
    for (std::uint32_t i = require_off_[t.value];
         i < require_off_[t.value + 1]; ++i) {
        const Term& term = require_[i];
        if ((marking[term.word] & term.mask) != term.mask) return false;
    }
    for (std::uint32_t i = forbid_off_[t.value]; i < forbid_off_[t.value + 1];
         ++i) {
        const Term& term = forbid_[i];
        if ((marking[term.word] & term.mask) != 0) return false;
    }
    return true;
}

__attribute__((aligned(64)))
void CompiledNet::fire(std::uint64_t* marking,
                       TransitionId t) const noexcept {
    for (std::uint32_t i = effect_off_[t.value]; i < effect_off_[t.value + 1];
         ++i) {
        const Effect& e = effect_[i];
        marking[e.word] = (marking[e.word] & ~e.clear_mask) | e.set_mask;
    }
}

__attribute__((aligned(64)))
void CompiledNet::enabled_set(const std::uint64_t* marking,
                              std::uint64_t* out) const noexcept {
    std::memset(out, 0, enabled_words_ * sizeof(std::uint64_t));
    for (std::uint32_t ti = 0; ti < transition_count_; ++ti) {
        if (is_enabled(marking, TransitionId{ti})) {
            out[ti / kWordBits] |= std::uint64_t{1} << (ti % kWordBits);
        }
    }
}

void CompiledNet::update_enabled(const std::uint64_t* marking,
                                 TransitionId fired,
                                 std::uint64_t* enabled) const noexcept {
    const std::uint64_t* known = disables(fired);
    for (std::uint32_t ti : affected(fired)) {
        const std::size_t w = ti / kWordBits;
        const std::uint64_t bit = std::uint64_t{1} << (ti % kWordBits);
        if ((known[w] & bit) == 0 && is_enabled(marking, TransitionId{ti})) {
            enabled[w] |= bit;
        } else {
            enabled[w] &= ~bit;
        }
    }
}

// ------------------------------------------------------- MarkingStore --

MarkingStore::MarkingStore(std::size_t marking_words,
                           std::size_t meta_words)
    : words_(std::max<std::size_t>(marking_words, 1)),
      meta_words_(meta_words),
      arena_(words_ + meta_words_),
      table_(std::size_t{1} << 12, kEmptySlot) {}

void MarkingStore::insert_displacing(std::uint64_t entry, std::size_t slot,
                                     std::size_t dist) noexcept {
    // Robin-hood displacement: a probing entry evicts any resident whose
    // own probe distance is shorter, then carries the evictee forward.
    // Probe-length variance stays tiny even at 7/8 load.
    const std::size_t mask = table_.size() - 1;
    while (true) {
        const std::uint64_t cur = table_[slot];
        if (cur == kEmptySlot) {
            table_[slot] = entry;
            return;
        }
        const std::size_t cur_home =
            static_cast<std::size_t>(cur >> 32) & mask;
        const std::size_t cur_dist = (slot - cur_home) & mask;
        if (cur_dist < dist) {
            table_[slot] = entry;
            entry = cur;
            dist = cur_dist;
        }
        slot = (slot + 1) & mask;
        ++dist;
    }
}

void MarkingStore::grow() {
    // Doubling: every entry moves to the new table as it is, its home
    // recovered from its own fragment. The arena is never read.
    std::vector<std::uint64_t> old(table_.size() * 2, kEmptySlot);
    table_.swap(old);
    const std::size_t mask = table_.size() - 1;
    for (const std::uint64_t entry : old) {
        if (entry == kEmptySlot) continue;
        insert_displacing(entry, static_cast<std::size_t>(entry >> 32) & mask,
                          0);
    }
}

MarkingStore::InternResult MarkingStore::intern(
    const std::uint64_t* words, std::uint64_t h, std::size_t capacity_limit) {
    const std::size_t mask = table_.size() - 1;
    const auto fragment = static_cast<std::uint32_t>(h);
    std::size_t slot = static_cast<std::size_t>(h) & mask;
    std::size_t dist = 0;
    while (true) {
        const std::uint64_t entry = table_[slot];
        if (entry == kEmptySlot) break;
        const auto efrag = static_cast<std::uint32_t>(entry >> 32);
        const std::size_t edist =
            (slot - (static_cast<std::size_t>(efrag) & mask)) & mask;
        // Invariant slot: every resident past this point sits closer to
        // its home than `words` would — absence is proven without
        // probing to an empty slot.
        if (edist < dist) break;
        if (efrag == fragment) {
            const auto id = static_cast<std::uint32_t>(entry);
            if (std::memcmp(arena_[id], words,
                            words_ * sizeof(std::uint64_t)) == 0) {
                return {id, false};
            }
        }
        slot = (slot + 1) & mask;
        ++dist;
    }
    if (count_ >= capacity_limit) return {kNone, false};
    // Record = marking payload + zeroed meta area (the arena record is
    // wider than the interned key when meta_words_ > 0).
    const auto id = static_cast<std::uint32_t>(arena_.push_zero());
    std::memcpy(arena_[id], words, words_ * sizeof(std::uint64_t));
    insert_displacing(pack(h, id), slot, dist);
    ++count_;
    if (count_ * 8 >= table_.size() * 7) grow();
    return {id, true};
}

void MarkingStore::clear() {
    arena_.clear();
    count_ = 0;
    std::fill(table_.begin(), table_.end(), kEmptySlot);
}

}  // namespace rap::petri
