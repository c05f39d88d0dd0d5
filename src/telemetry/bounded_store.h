#ifndef WLM_TELEMETRY_BOUNDED_STORE_H_
#define WLM_TELEMETRY_BOUNDED_STORE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wlm {

/// Flat open-addressing map from a 64-bit id to a 32-bit slot number: the
/// id index of the per-query telemetry stores. Linear probing over a
/// power-of-two table with backward-shift deletion (no tombstones, no
/// per-entry allocation). It doubles at half load from a small start, so a
/// run touches only as many cells as it has live ids.
class SlotIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Slot of `id`, or kNone.
  uint32_t Find(uint64_t id) const {
    if (cells_.empty()) return kNone;
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      if (cells_[i].slot == kNone) return kNone;
      if (cells_[i].id == id) return cells_[i].slot;
    }
  }

  /// Maps `id` (which must be absent) to `slot`.
  void Insert(uint64_t id, uint32_t slot) {
    if (2 * (size_ + 1) > cells_.size()) Grow();
    size_t i = Home(id);
    while (cells_[i].slot != kNone) i = (i + 1) & mask_;
    cells_[i] = Cell{id, slot};
    ++size_;
  }

  /// Removes `id`; no-op when absent.
  void Erase(uint64_t id) {
    if (cells_.empty()) return;
    size_t i = Home(id);
    for (; cells_[i].slot == kNone || cells_[i].id != id; i = (i + 1) & mask_) {
      if (cells_[i].slot == kNone) return;
    }
    // Pull later members of the probe run back over the hole unless their
    // home lies cyclically in (hole, member].
    for (size_t j = (i + 1) & mask_; cells_[j].slot != kNone;
         j = (j + 1) & mask_) {
      if (((j - Home(cells_[j].id)) & mask_) >= ((j - i) & mask_)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i].slot = kNone;
    --size_;
  }

  void Clear() {
    for (Cell& cell : cells_) cell.slot = kNone;
    size_ = 0;
  }

 private:
  struct Cell {
    uint64_t id = 0;
    uint32_t slot = kNone;
  };

  /// Fibonacci hashing: the top bits of id * 2^64/phi.
  size_t Home(uint64_t id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.empty() ? 16 : 2 * old.size(), Cell{});
    mask_ = cells_.size() - 1;
    shift_ = 64 - std::countr_zero(cells_.size());
    size_ = 0;
    for (const Cell& cell : old) {
      if (cell.slot != kNone) Insert(cell.id, cell.slot);
    }
  }

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

/// FIFO of trivially copyable values in one power-of-two ring that doubles
/// when full: the finished-order queue of the bounded stores. Unlike
/// std::deque it never allocates again once it has seen its high-water
/// mark.
template <typename T>
class FifoRing {
 public:
  bool empty() const { return count_ == 0; }
  const T& front() const { return buf_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }
  void push_back(T value) {
    if (count_ == buf_.size()) {
      std::vector<T> grown(buf_.empty() ? 16 : 2 * buf_.size());
      for (size_t i = 0; i < count_; ++i) grown[i] = At(i);
      buf_ = std::move(grown);
      head_ = 0;
    }
    buf_[(head_ + count_++) & (buf_.size() - 1)] = value;
  }

 private:
  const T& At(size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
};

/// Interns the few distinct names (workloads, synthetic tracks) a store
/// records, so a record holds a 32-bit id and the string is built only
/// when read. Lookups take a string_view and never allocate.
class NameTable {
 public:
  uint32_t Intern(std::string_view name) {
    // Runs are dominated by one or two workloads: try the last hit first.
    if (last_ < names_.size() && names_[last_] == name) return last_;
    auto it = ids_.find(name);
    if (it == ids_.end()) {
      it = ids_.emplace(name, static_cast<uint32_t>(names_.size())).first;
      names_.emplace_back(name);
    }
    return last_ = it->second;
  }
  const std::string& Name(uint32_t id) const { return names_[id]; }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
  uint32_t last_ = 0;
};

/// Reservation for a bounded store of `cap` entries: capped so a huge
/// ("unbounded") window does not reserve address space it never uses.
inline size_t ReserveBound(size_t cap) {
  return cap < (size_t{1} << 16) ? cap : (size_t{1} << 16);
}

}  // namespace wlm

#endif  // WLM_TELEMETRY_BOUNDED_STORE_H_
