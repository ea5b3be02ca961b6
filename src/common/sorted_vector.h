#ifndef PCPDA_COMMON_SORTED_VECTOR_H_
#define PCPDA_COMMON_SORTED_VECTOR_H_

#include <algorithm>
#include <vector>

namespace pcpda {

/// Small sorted vectors stand in for std::set wherever the engine keeps a
/// handful of ids per job or item (lock sets, read sets): the same
/// ascending iteration order, no node allocation per insert, and a
/// clear() that keeps the capacity for the next job.

/// Inserts `value` into the sorted vector; false when already present.
template <typename T>
bool InsertSorted(std::vector<T>& sorted, T value) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  if (it != sorted.end() && *it == value) return false;
  sorted.insert(it, value);
  return true;
}

/// Erases `value` from the sorted vector; false when it was absent.
template <typename T>
bool EraseSorted(std::vector<T>& sorted, T value) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  if (it == sorted.end() || *it != value) return false;
  sorted.erase(it);
  return true;
}

/// True when the sorted vector holds `value`.
template <typename T>
bool ContainsSorted(const std::vector<T>& sorted, T value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

}  // namespace pcpda

#endif  // PCPDA_COMMON_SORTED_VECTOR_H_
