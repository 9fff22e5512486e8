#include "src/index/expectation_index.h"

#include <functional>
#include <iterator>

#include "src/common/failpoints.h"
#include "src/common/random.h"

namespace pip {

ExpectationIndex::Key::Key(uint64_t table_id, uint64_t row_id,
                           std::string result)
    : table_id(table_id),
      row_id(row_id),
      result(std::move(result)),
      hash(static_cast<size_t>(
          MixBits(table_id, row_id, std::hash<std::string>{}(this->result),
                  0))) {}

size_t ExpectationIndex::EntryBytes(const Entry& entry) {
  // The key string plus list-node and hash-map-node overhead,
  // approximated at 64 bytes.
  size_t bytes = entry.key.result.size() + sizeof(Entry) + 64;
  if (entry.value.summary != nullptr) bytes += entry.value.summary->ByteSize();
  return bytes;
}

bool ExpectationIndex::StaleLocked(uint64_t table_id,
                                   uint64_t generation) const {
  if (replaced_generation_.empty()) return false;
  auto it = replaced_generation_.find(table_id);
  return it != replaced_generation_.end() && generation < it->second;
}

std::optional<IndexedValue> ExpectationIndex::Lookup(const Key& key,
                                                     uint64_t generation,
                                                     bool count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (StaleLocked(key.table_id, generation)) {
    if (count) {
      ++stats_.stale_rejects;
      ++stats_.misses;
    }
    return std::nullopt;
  }
  auto it = map_.find(&key);
  if (it == map_.end()) {
    if (count) ++stats_.misses;
    return std::nullopt;
  }
  if (count) ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void ExpectationIndex::CountHits(uint64_t hits) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.hits += hits;
}

void ExpectationIndex::Insert(Key key, uint64_t generation,
                              IndexedValue value) {
  std::lock_guard<std::mutex> lock(mu_);
  // Chaos site: allocation failure while materializing the entry. The
  // backfill is dropped — queries recompute, the index stays cold but
  // never serves a partial entry.
  if (PIP_FAILPOINT("index.insert_alloc") == failpoints::ActionKind::kError) {
    ++stats_.insert_failures;
    return;
  }
  if (StaleLocked(key.table_id, generation)) {
    // A writer replaced the table while this result was being computed
    // on the old snapshot; caching it would resurrect purged state.
    ++stats_.stale_rejects;
    return;
  }
  auto it = map_.find(&key);
  if (it != map_.end()) {
    // Concurrent backfills of one entry produce bit-identical replay
    // payloads, so replacing is safe; it also lets the eager builder
    // attach a summary to an entry the lazy path stored first.
    Entry& entry = *it->second;
    bytes_ -= entry.bytes;
    entry.value = std::move(value);
    entry.bytes = EntryBytes(entry);
    bytes_ += entry.bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictToBudgetLocked();
    return;
  }
  lru_.push_front(Entry{std::move(key), std::move(value), 0});
  Entry& entry = lru_.front();
  entry.bytes = EntryBytes(entry);
  bytes_ += entry.bytes;
  map_.emplace(&entry.key, lru_.begin());
  ++stats_.inserts;
  EvictToBudgetLocked();
}

void ExpectationIndex::ReplaceTable(uint64_t table_id, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& current = replaced_generation_[table_id];
  if (generation > current) current = generation;
  // Replacements are rare next to lookups, so a scan beats keeping a
  // per-table key set on every insert.
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->key.table_id == table_id) {
      EraseLocked(it);
      ++stats_.invalidations;
    }
    it = next;
  }
}

void ExpectationIndex::EraseLocked(LruList::iterator it) {
  bytes_ -= it->bytes;
  map_.erase(&it->key);
  lru_.erase(it);
}

void ExpectationIndex::EvictToBudgetLocked() {
  if (memory_budget_ == 0) return;  // Unlimited.
  while (bytes_ > memory_budget_ && !lru_.empty()) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void ExpectationIndex::SetMemoryBudget(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  memory_budget_ = bytes;
  EvictToBudgetLocked();
}

size_t ExpectationIndex::memory_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_budget_;
}

ExpectationIndex::Stats ExpectationIndex::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.entries = map_.size();
  stats.bytes = bytes_;
  stats.memory_budget = memory_budget_;
  return stats;
}

void ExpectationIndex::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
}

}  // namespace pip
