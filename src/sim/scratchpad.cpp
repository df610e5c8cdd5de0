#include "sim/scratchpad.h"

#include <algorithm>

namespace bts::sim {

int&
SoftwareCache::Directory::widen(std::int64_t key)
{
    if (slot_.empty()) {
        lo_ = key;
        slot_.assign(1, kNone);
        return slot_[0];
    }
    // Widen geometrically toward the key: a growing id stream costs
    // amortized O(1) per id. Keys are never negative.
    const auto size = static_cast<std::int64_t>(slot_.size());
    const std::int64_t hi = lo_ + size;
    const std::int64_t new_lo =
        key < lo_ ? std::min(key, std::max<std::int64_t>(0, hi - 2 * size))
                  : lo_;
    const std::int64_t new_hi =
        key < lo_ ? hi : std::max(key + 1, lo_ + 2 * size);
    std::vector<int> wider(static_cast<std::size_t>(new_hi - new_lo), kNone);
    std::copy(slot_.begin(), slot_.end(), wider.begin() + (lo_ - new_lo));
    slot_.swap(wider);
    lo_ = new_lo;
    return slot_[static_cast<std::size_t>(key - lo_)];
}

SoftwareCache::SoftwareCache(double capacity_bytes)
    : capacity_(std::max(0.0, capacity_bytes))
{}

double
SoftwareCache::hit_rate() const
{
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

void
SoftwareCache::unlink(int s)
{
    const Slot& e = slots_[s];
    (e.prev == kNone ? head_ : slots_[e.prev].next) = e.next;
    (e.next == kNone ? tail_ : slots_[e.next].prev) = e.prev;
}

void
SoftwareCache::link_front(int s)
{
    slots_[s].prev = kNone;
    slots_[s].next = head_;
    (head_ == kNone ? tail_ : slots_[head_].prev) = s;
    head_ = s;
}

void
SoftwareCache::push_front(int id, double bytes)
{
    int s = free_;
    if (s == kNone) {
        s = static_cast<int>(slots_.size());
        slots_.emplace_back();
    } else {
        free_ = slots_[s].next;
    }
    slots_[s].bytes = bytes;
    slots_[s].id = id;
    link_front(s);
    directory(id).at(key(id)) = s;
    used_ += bytes;
}

void
SoftwareCache::remove(int s)
{
    unlink(s);
    Slot& e = slots_[s];
    directory(e.id).at(key(e.id)) = kNone;
    used_ -= e.bytes;
    e.next = free_;
    free_ = s;
}

void
SoftwareCache::evict_for(double bytes)
{
    while (used_ + bytes > capacity_ && tail_ != kNone) remove(tail_);
}

double
SoftwareCache::access(int id, double bytes)
{
    const int s = find(id);
    if (s != kNone) {
        ++hits_;
        unlink(s);
        link_front(s);
        return 0.0;
    }
    ++misses_;
    if (bytes > capacity_) {
        // Streams straight through; nothing retained.
        return bytes;
    }
    evict_for(bytes);
    push_front(id, bytes);
    return bytes;
}

void
SoftwareCache::insert(int id, double bytes)
{
    const int s = find(id);
    if (s != kNone) remove(s);
    if (bytes > capacity_) return;
    evict_for(bytes);
    push_front(id, bytes);
}

} // namespace bts::sim
