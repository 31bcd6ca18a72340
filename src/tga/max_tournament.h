// MaxTournament: a tournament tree that keeps the argmax of an array of
// keys under point updates — O(1) to read the winner, O(log n) to change
// one key.
//
// The winner is the highest key, the lowest index on a tie: exactly what
// a left-to-right linear scan with a strict `>` returns. A key of −∞
// never beats anything, so it takes an entry out of the running; when
// every entry is −∞ (or there are none) the winner is index 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace v6::tga {

class MaxTournament {
 public:
  static constexpr double kOut = -std::numeric_limits<double>::infinity();

  /// Rebuilds the tree over `n` entries, entry i keyed `key_of(i)`. O(n).
  template <typename KeyOf>
  void assign(std::size_t n, KeyOf key_of) {
    leaves_ = 1;
    while (leaves_ < n) leaves_ <<= 1;
    keys_.assign(leaves_, kOut);
    for (std::size_t i = 0; i < n; ++i) keys_[i] = key_of(i);
    winners_.resize(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i) {
      winners_[leaves_ + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t node = leaves_ - 1; node >= 1; --node) replay(node);
  }

  /// Sets entry `i`'s key and replays its path to the root. O(log n).
  void set(std::size_t i, double key) {
    keys_[i] = key;
    for (std::size_t node = (leaves_ + i) / 2; node >= 1; node /= 2) {
      replay(node);
    }
  }

  std::size_t winner() const { return winners_[1]; }

 private:
  void replay(std::size_t node) {
    const std::uint32_t left = winners_[2 * node];
    const std::uint32_t right = winners_[2 * node + 1];
    winners_[node] = keys_[right] > keys_[left] ? right : left;
  }

  std::size_t leaves_ = 1;
  std::vector<double> keys_ = {kOut};
  std::vector<std::uint32_t> winners_ = {0, 0};
};

}  // namespace v6::tga
