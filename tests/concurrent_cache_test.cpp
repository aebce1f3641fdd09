// ConcurrentPeakCache: the sharded lock-free memo shared by the advice
// server's worker pool (DESIGN.md §13). The stress tests here are the body
// of the CI server-soak job's TSan leg: every shared access in the cache is
// a std::atomic, so a data-race report from any interleaving is a real bug.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "core/concurrent_peak_cache.hpp"

namespace {

using hp::core::ConcurrentPeakCache;

// Keys are plain word sequences (the cache takes key words, as
// PredictionCache does).
using Key = std::vector<std::uint64_t>;

// The pure-function-of-key contract: a cache may only memoise values
// derivable from the key alone, which is what makes every race benign. The
// tests insert f(key) and demand that every hit equals it exactly.
double value_of(std::uint64_t a, std::uint64_t b) {
    return static_cast<double>((a * 2654435761ull + b) & 0xFFFFFull) * 0.5;
}

Key make_key(std::uint64_t a, std::uint64_t b) { return Key{a, b}; }

TEST(ConcurrentCacheTest, InsertLookupRoundTrip) {
    ConcurrentPeakCache cache;
    cache.configure(256, 8);
    EXPECT_TRUE(cache.enabled());

    const Key key = make_key(1, 2);
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
    cache.insert(key.data(), key.size(), 42.5);
    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(value, 42.5);

    const Key other = make_key(3, 4);
    EXPECT_FALSE(cache.lookup(other.data(), other.size(), &value));

    const ConcurrentPeakCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST(ConcurrentCacheTest, DisabledCacheAlwaysMisses) {
    ConcurrentPeakCache cache;  // never configured
    const Key key = make_key(1, 2);
    double value = 0.0;
    cache.insert(key.data(), key.size(), 1.0);
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));

    cache.configure(256, 8);
    cache.insert(key.data(), key.size(), 1.0);
    EXPECT_TRUE(cache.lookup(key.data(), key.size(), &value));
    cache.configure(0, 8);  // explicit disable drops storage
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
}

TEST(ConcurrentCacheTest, OversizeKeyIsNotCacheable) {
    ConcurrentPeakCache cache;
    cache.configure(256, /*max_key_words=*/2);
    Key key;
    for (std::uint64_t i = 0; i < 3; ++i) key.push_back(i + 1);
    double value = 0.0;
    cache.insert(key.data(), key.size(), 7.0);
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
}

// The PR's O(1) invalidation contract, concurrent-cache side: a generation
// bump makes every prior entry unreachable, with no per-slot work.
TEST(ConcurrentCacheTest, GenerationBumpDropsEveryEntry) {
    ConcurrentPeakCache cache;
    cache.configure(1024, 4);
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Key key = make_key(i, i + 1);
        cache.insert(key.data(), key.size(), value_of(i, i + 1));
    }
    double value = 0.0;
    std::size_t hits = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Key key = make_key(i, i + 1);
        if (cache.lookup(key.data(), key.size(), &value)) ++hits;
    }
    EXPECT_GT(hits, 0u);

    cache.invalidate();
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Key key = make_key(i, i + 1);
        EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value))
            << "stale hit survived the generation bump for key " << i;
    }

    // Stale-generation slots are recycled: inserts work again afterwards.
    const Key key = make_key(9999, 1);
    cache.insert(key.data(), key.size(), 3.25);
    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(value, 3.25);
}

// Lossy overwrite under deliberate capacity pressure: hits may become
// misses, but a hit can never return a value that does not belong to the
// queried key.
TEST(ConcurrentCacheTest, CollisionsNeverCorruptValues) {
    ConcurrentPeakCache cache;
    cache.configure(/*entries=*/16, /*max_key_words=*/2, /*shards=*/1);
    const std::uint64_t keys = 4096;
    for (std::uint64_t i = 0; i < keys; ++i) {
        const Key key = make_key(i, i * 3);
        cache.insert(key.data(), key.size(), value_of(i, i * 3));
    }
    std::size_t hits = 0;
    for (std::uint64_t i = 0; i < keys; ++i) {
        const Key key = make_key(i, i * 3);
        double value = 0.0;
        if (cache.lookup(key.data(), key.size(), &value)) {
            ++hits;
            EXPECT_EQ(value, value_of(i, i * 3)) << "wrong value for key " << i;
        }
    }
    EXPECT_LT(hits, keys);  // far over capacity: most entries were displaced
}

// The server-soak stress: 32 threads of mixed insert/lookup/invalidate over
// a deliberately small cache. Correctness bar: every hit equals f(key)
// bit-exactly, and the hit/miss counters account for every lookup. Run
// under TSan by the server-soak CI job.
TEST(ConcurrentCacheTest, StressMixedInsertLookupInvalidate) {
    ConcurrentPeakCache cache;
    cache.configure(/*entries=*/512, /*max_key_words=*/4, /*shards=*/4);

    const std::size_t threads = 32;
    const std::size_t iterations = 20000;
    const std::uint64_t key_space = 1024;
    std::atomic<std::uint64_t> wrong_hits{0};
    std::atomic<std::uint64_t> lookups{0};

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::mt19937_64 rng(t + 1);
            Key key;
            std::uint64_t my_lookups = 0;
            for (std::size_t i = 0; i < iterations; ++i) {
                const std::uint64_t a = rng() % key_space;
                const std::uint64_t b = rng() % 7;
                key.clear();
                key.push_back(a);
                key.push_back(b);
                const std::uint64_t op = rng() % 16;
                if (op == 0 && t == 0) {
                    // One thread occasionally drops everything; hits before
                    // and after remain pure functions of the key.
                    cache.invalidate();
                } else if (op < 8) {
                    cache.insert(key.data(), key.size(), value_of(a, b));
                } else {
                    double value = 0.0;
                    ++my_lookups;
                    if (cache.lookup(key.data(), key.size(), &value) &&
                        value != value_of(a, b))
                        wrong_hits.fetch_add(1, std::memory_order_relaxed);
                }
            }
            lookups.fetch_add(my_lookups, std::memory_order_relaxed);
        });
    }
    for (std::thread& worker : pool) worker.join();

    EXPECT_EQ(wrong_hits.load(), 0u);
    const ConcurrentPeakCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups.load());
    EXPECT_GT(stats.hits, 0u);
}

}  // namespace
