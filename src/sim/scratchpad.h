/**
 * @file
 * Scratchpad model: capacity partitioning and the LRU software cache
 * for ciphertexts (Section 5.3).
 *
 * The 512 MB scratchpad serves three masters: (1) temporary data of the
 * in-flight HE op (reserved up front, sized by the instance's ModUp /
 * accumulator working set), (2) the prefetched evk stream buffer, and
 * (3) a software-managed ciphertext cache with LRU replacement — the
 * paper's "SW caching", whose hit rate drives Fig. 7a and Fig. 10.
 *
 * The cache is flat: resident objects sit in a slot array linked into
 * an intrusive recency list, and an id-indexed directory maps each id
 * to its slot. A trace's object ids are dense (ciphertexts count up
 * from 0; the simulator keys plaintexts at -1000000 - output), so the
 * directory holds one window of ids per sign and a lookup is one index.
 * The directory costs 4 bytes per id in each window's span, so ids far
 * apart cost memory, not correctness.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace bts::sim {

/** LRU software cache over variable-size objects (cts, plaintexts). */
class SoftwareCache
{
  public:
    /** @param capacity_bytes space left after the static reservations. */
    explicit SoftwareCache(double capacity_bytes);

    /**
     * Touch object @p id needing @p bytes. On a miss, the object is
     * loaded (evicting LRU victims as needed).
     * @return bytes that had to move over HBM (0 on a full hit).
     */
    double access(int id, double bytes);

    /** Insert/refresh an op output (produced on-chip, no HBM traffic,
     *  but may evict victims). */
    void insert(int id, double bytes);

    /** Statistics. */
    std::size_t hits() const { return hits_; }
    std::size_t misses() const { return misses_; }
    double hit_rate() const;
    double used_bytes() const { return used_; }
    double capacity() const { return capacity_; }

  private:
    static constexpr int kNone = -1;

    /** Slot index per key over the dense window [lo, lo + size). */
    class Directory
    {
      public:
        /** Slot of @p key, or kNone. */
        int
        find(std::int64_t key) const
        {
            const auto i = static_cast<std::uint64_t>(key - lo_);
            return i < slot_.size() ? slot_[i] : kNone;
        }

        /** Writable entry of @p key, widening the window to hold it. */
        int&
        at(std::int64_t key)
        {
            const auto i = static_cast<std::uint64_t>(key - lo_);
            return i < slot_.size() ? slot_[i] : widen(key);
        }

      private:
        int& widen(std::int64_t key);

        std::int64_t lo_ = 0;
        std::vector<int> slot_;
    };

    /** A resident object and its recency-list neighbours. */
    struct Slot
    {
        double bytes;
        int id;
        int prev; //!< more recent slot, kNone at the head
        int next; //!< less recent slot, kNone at the tail
    };

    /** Directory and key holding @p id: ids >= 0 by value, negative
     *  ids by ~id (so the plaintext window starts near 999999). */
    Directory& directory(int id) { return id >= 0 ? pos_ : neg_; }
    static std::int64_t key(int id) { return id >= 0 ? id : ~id; }
    int find(int id) const { return (id >= 0 ? pos_ : neg_).find(key(id)); }

    void unlink(int s);
    void link_front(int s);
    /** Make @p id resident as the most recent object. */
    void push_front(int id, double bytes);
    /** Drop resident slot @p s: unlink it, free it, release its bytes. */
    void remove(int s);
    void evict_for(double bytes);

    double capacity_;
    double used_ = 0;
    Directory pos_;
    Directory neg_;
    std::vector<Slot> slots_;
    int head_ = kNone; //!< most recent
    int tail_ = kNone; //!< least recent
    int free_ = kNone; //!< free slots, chained through Slot::next
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

} // namespace bts::sim
