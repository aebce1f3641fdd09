#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/peak_temperature.hpp"
#include "obs/metrics.hpp"

namespace hp::core {

/// Quantises a slot/core power to the prediction-cache grid (steps of
/// 2^-10 W ≈ 1 mW). The grid step is an exact binary fraction, so quantised
/// powers round-trip through the cache key bit-exactly, and the quantisation
/// itself is far below the watt-level signal the thermal model reacts to.
/// Schedulers quantise *before* prediction whether or not their cache is
/// enabled — that is what makes a cache hit bit-identical to a fresh
/// evaluation (both see the same quantised inputs) and hence campaign output
/// independent of the cache switch.
inline double quantise_power_w(double power_w) {
    return static_cast<double>(std::llround(power_w * 1024.0)) / 1024.0;
}

/// FNV-1a over the key words, then a murmur3 fmix64 finalizer — the one
/// key hash both prediction caches use. The match is exact regardless; the
/// finalizer is load-bearing for slot placement: FNV's multiply only carries
/// bit differences upward, so two keys differing in the top bits of one
/// word (e.g. only in a double's exponent, like a τ ladder) would share
/// every low hash bit — identical slot, shard and tag — and evict each
/// other. fmix64's shift-xor steps diffuse high bits back down.
inline std::uint64_t key_hash(const std::uint64_t* key, std::size_t len) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= key[i];
        h *= 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

/// The one prediction-cache key layout (HotPotato, advice server, PCMig):
///
///   backend signature | tag (0 static, 1 rotation) | τ bits | samples/epoch
///   | per ring: size, then its quantised slot powers
///
/// Static keys carry τ = 0 and 0 samples (neither affects a steady state).
/// The ring sizes keep {2,3}- and {3,2}-slot rings with equal powers apart.
/// Powers must be quantised (quantise_power_w): the words are their bits.
/// The buffer only grows, so a warmed key is allocation-free.
class PeakKey {
public:
    /// Words of a key over @p rings rings holding @p slots slots in total.
    static constexpr std::size_t max_words(std::size_t rings,
                                           std::size_t slots) {
        return 4 + rings + slots;
    }

    /// Starts a key: the four header words.
    void begin(std::uint64_t backend_signature, bool rotation_on,
               double tau_s, std::size_t samples_per_epoch) {
        words_.assign({backend_signature, rotation_on ? 1u : 0u,
                       std::bit_cast<std::uint64_t>(rotation_on ? tau_s : 0.0),
                       rotation_on ? samples_per_epoch : 0});
    }

    /// Appends one ring: its size, then its slot powers (a flat per-core
    /// power vector is one ring).
    void add_ring(const double* powers, std::size_t count) {
        words_.push_back(count);
        for (std::size_t i = 0; i < count; ++i)
            words_.push_back(std::bit_cast<std::uint64_t>(powers[i]));
    }

    /// begin() plus add_ring() for every ring of @p rings.
    void assign(std::uint64_t backend_signature, bool rotation_on,
                double tau_s, std::size_t samples_per_epoch,
                const std::vector<RotationRingSpec>& rings) {
        begin(backend_signature, rotation_on, tau_s, samples_per_epoch);
        for (const RotationRingSpec& ring : rings)
            add_ring(ring.slot_power_w.data(), ring.slot_power_w.size());
    }

    const std::uint64_t* data() const { return words_.data(); }
    std::size_t size() const { return words_.size(); }

private:
    std::vector<std::uint64_t> words_;
};

/// Fixed-capacity memo of thermal predictions keyed by a sequence of 64-bit
/// words (a PeakKey: everything that determines the prediction).
///
/// Design constraints, in order:
///  - allocation-free after configure(): the hot path (HotPotato's
///    per-epoch Algorithm-1 queries) is covered by the alloc-guard tests, so
///    entries are stored in flat preallocated arrays and keys are the
///    caller's words (a PeakKey), as with ConcurrentPeakCache;
///  - exact: keys match word-for-word or not at all. Together with input
///    quantisation this makes a hit return exactly what re-evaluating would
///    produce — the cache can change *when* work happens, never *what* the
///    scheduler decides;
///  - evictable: direct-mapped-with-probe-window placement (an entry lands
///    on hash(key) mod capacity, probing up to kProbeWindow slots); new
///    entries overwrite the oldest slot in the window, so stale pressure
///    cannot grow the structure;
///  - invalidatable: invalidate() is an O(1) generation bump, called on
///    every event that changes the thermal meaning of a key (core failure /
///    ring re-formation, DVFS level change, sensor-fallback re-clock). Slots
///    carry the generation they were written under; a slot from an older
///    generation can never hit and is reused as if empty, so a bump is
///    semantically identical to clearing every slot without touching them.
///
/// Not thread-safe; each scheduler instance owns one (schedulers are
/// per-simulation objects, and campaign workers never share them).
template <typename Value>
class PredictionCache {
public:
    PredictionCache() = default;

    /// Sizes the cache for @p entries slots of keys up to @p max_key_words
    /// 64-bit words. Clears any previous contents and statistics. A later
    /// key longer than @p max_key_words is simply not cacheable (lookups
    /// miss, inserts are dropped) rather than an error.
    void configure(std::size_t entries, std::size_t max_key_words) {
        capacity_ = entries;
        max_words_ = max_key_words;
        keys_.assign(entries * max_key_words, 0);
        key_len_.assign(entries, 0);  // 0 = empty slot
        slot_gen_.assign(entries, 0);
        age_.assign(entries, 0);
        values_.assign(entries, Value{});
        hits_ = misses_ = 0;
        tick_ = 0;
        gen_ = 0;
    }

    bool enabled() const { return capacity_ != 0; }

    /// Mirrors every hit and miss into observability counters (either may
    /// be null), so a scheduler's metrics follow its cache exactly.
    void count_into(obs::Counter* hits, obs::Counter* misses) {
        obs_hits_ = hits;
        obs_misses_ = misses;
    }

    /// Looks @p key (@p len words) up; on hit copies the cached value to
    /// @p out and returns true. Counts the hit/miss either way.
    bool lookup(const std::uint64_t* key, std::size_t len, Value* out) {
        if (cacheable(len)) {
            const std::size_t base = slot_of(key_hash(key, len));
            for (std::size_t p = 0; p < kProbeWindow; ++p) {
                const std::size_t s = (base + p) % capacity_;
                if (slot_gen_[s] != gen_) continue;  // stale = empty
                if (key_len_[s] != len) continue;
                if (std::memcmp(keys_.data() + s * max_words_, key,
                                len * sizeof(std::uint64_t)) != 0)
                    continue;
                ++hits_;
                if (obs_hits_) obs_hits_->add();
                age_[s] = ++tick_;
                *out = values_[s];
                return true;
            }
        }
        ++misses_;
        if (obs_misses_) obs_misses_->add();
        return false;
    }

    /// Stores @p value under @p key, overwriting the oldest entry in the
    /// probe window. No-op when the key is oversize or the cache is
    /// unconfigured.
    void insert(const std::uint64_t* key, std::size_t len,
                const Value& value) {
        if (!cacheable(len)) return;
        const std::size_t base = slot_of(key_hash(key, len));
        std::size_t victim = base;
        std::uint64_t victim_age = age_[base];
        for (std::size_t p = 0; p < kProbeWindow; ++p) {
            const std::size_t s = (base + p) % capacity_;
            // Empty and stale-generation slots win immediately: a bumped
            // generation made their contents unreachable, so they are free.
            if (key_len_[s] == 0 || slot_gen_[s] != gen_) {
                victim = s;
                break;
            }
            if (age_[s] < victim_age) {
                victim = s;
                victim_age = age_[s];
            }
        }
        std::memcpy(keys_.data() + victim * max_words_, key,
                    len * sizeof(std::uint64_t));
        key_len_[victim] = len;
        slot_gen_[victim] = gen_;
        values_[victim] = value;
        age_[victim] = ++tick_;
    }

    /// Drops every entry in O(1) by bumping the live generation — slots
    /// written under an older generation can never hit again (statistics are
    /// kept: invalidations are part of a run's hit/miss story, not a new
    /// run). DVFS engage/relax and ring re-formation call this once per
    /// event, so its cost must not scale with capacity.
    void invalidate() { ++gen_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

private:
    static constexpr std::size_t kProbeWindow = 8;

    bool cacheable(std::size_t len) const {
        return capacity_ != 0 && len != 0 && len <= max_words_;
    }

    std::size_t slot_of(std::uint64_t h) const {
        return static_cast<std::size_t>(h % capacity_);
    }

    std::size_t capacity_ = 0;
    std::size_t max_words_ = 0;
    std::vector<std::uint64_t> keys_;     ///< capacity × max_words flat
    std::vector<std::size_t> key_len_;    ///< words used; 0 = empty
    std::vector<std::uint64_t> slot_gen_; ///< generation the slot was written
    std::vector<std::uint64_t> age_;      ///< LRU-within-window tick
    std::vector<Value> values_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t gen_ = 0;  ///< live generation; bumped by invalidate()
    obs::Counter* obs_hits_ = nullptr;
    obs::Counter* obs_misses_ = nullptr;
};

}  // namespace hp::core
