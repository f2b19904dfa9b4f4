#include "verify/cache.hpp"

#include <algorithm>
#include <utility>

namespace rap::verify {

ArtifactCache::ArtifactCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

std::shared_ptr<const CompiledModel> ArtifactCache::get(
    const dfs::Graph& graph) {
    std::string key = model_structure_fingerprint(graph);
    const std::size_t structure_size = key.size();
    append_marking_fingerprint(key, graph);

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = index_.find(key);
        if (it != index_.end()) {
            if (it->second->model == nullptr) {
                // Another caller is compiling this exact model; wait for
                // its build instead of compiling again, then re-check
                // from scratch (the build may have failed and vanished).
                ready_.wait(lock);
                continue;
            }
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);
            auto model = it->second->model;  // held from here on
            evict_overflow();
            return model;
        }

        // Miss: insert a building placeholder (held, so neither eviction
        // nor clear() can drop it) and compile outside the lock, off the
        // structure's latest live model when there is one.
        ++misses_;
        lru_.push_front(Entry{key, nullptr, 0});
        const Slot slot = lru_.begin();
        index_.emplace(key, slot);
        std::string structure = key.substr(0, structure_size);
        std::shared_ptr<const CompiledModel> parent;
        if (auto s = structural_.find(structure); s != structural_.end()) {
            parent = s->second.lock();
        }
        lock.unlock();

        std::shared_ptr<const CompiledModel> model;
        try {
            model = parent != nullptr
                        ? std::make_shared<const CompiledModel>(graph, *parent)
                        : std::make_shared<const CompiledModel>(graph);
        } catch (...) {
            lock.lock();
            index_.erase(key);
            lru_.erase(slot);
            ready_.notify_all();  // waiters retry as builders
            throw;
        }
        parent.reset();  // the parent is no longer held by this build

        lock.lock();
        slot->model = model;
        slot->bytes = model->approx_bytes();
        bytes_ += slot->bytes;
        structural_[std::move(structure)] = model;
        // The index only grows by distinct structures; sweep out entries
        // whose models all died so it cannot accumulate unboundedly
        // across long multi-model runs.
        if (structural_.size() > 64) {
            std::erase_if(structural_,
                          [](const auto& kv) { return kv.second.expired(); });
        }
        ready_.notify_all();
        evict_overflow();
        return model;
    }
}

ArtifactCache::Slot ArtifactCache::drop(Slot slot) {
    bytes_ -= slot->bytes;
    index_.erase(slot->key);
    return lru_.erase(slot);
}

void ArtifactCache::evict_overflow() {
    auto it = lru_.end();
    while (bytes_ > capacity_bytes_ && it != lru_.begin()) {
        --it;
        if (held(*it)) continue;
        ++evictions_;
        it = drop(it);
    }
}

CacheStats ArtifactCache::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.entries = index_.size();
    stats.bytes = bytes_;
    stats.pinned = static_cast<std::size_t>(
        std::count_if(lru_.begin(), lru_.end(), held));
    stats.capacity_bytes = capacity_bytes_;
    return stats;
}

void ArtifactCache::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
        it = held(*it) ? std::next(it) : drop(it);
    }
}

ArtifactCache& ArtifactCache::process_cache() {
    static ArtifactCache cache;
    return cache;
}

CacheStats cache_stats() { return ArtifactCache::process_cache().stats(); }

}  // namespace rap::verify
