// WordMemo: the tree's one per-node memo. One word per view element graph
// node, keyed by its ElementIndexer index, 0 meaning "not yet visited". Up
// to kDenseMemoLimit nodes it is a flat table calloc'd on the first Set()
// (or by Reserve()), so an unwritten memo allocates nothing and pages
// holding no visited node are never backed; above the limit it hashes the
// visited nodes.
//
// Unlocked. Dense words are read and written as relaxed atomics, so
// several lanes may share a Reserve()d dense memo when every lane that
// writes a word writes the same value (TilingDp's fan-out, DESIGN.md §1).
// The hash path is single-threaded.

#ifndef VECUBE_CORE_WORD_MEMO_H_
#define VECUBE_CORE_WORD_MEMO_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "util/logging.h"

namespace vecube {

/// The one graph-size cap for flat per-node tables: 128 MiB of 8-byte words.
inline constexpr uint64_t kDenseMemoLimit = uint64_t{1} << 24;

template <typename Word>
class WordMemo {
 public:
  explicit WordMemo(uint64_t universe) : universe_(universe) {}

  /// Allocates the dense table now instead of on the first Set(), so lanes
  /// that share the memo never race on that allocation. Dense path only.
  void Reserve() {
    VECUBE_CHECK(universe_ <= kDenseMemoLimit);
    if (words_ != nullptr) return;
    words_.reset(static_cast<Word*>(std::calloc(universe_, sizeof(Word))));
    VECUBE_CHECK(words_ != nullptr);
  }

  [[nodiscard]] Word Get(uint64_t index) const {
    if (universe_ <= kDenseMemoLimit) {
      // order: relaxed — a word is written once per racing lane, always
      // with the same value; it publishes nothing else.
      return words_ != nullptr ? std::atomic_ref<Word>(words_[index]).load(
                                     std::memory_order_relaxed)
                               : Word{0};
    }
    auto it = map_.find(index);
    return it == map_.end() ? Word{0} : it->second;
  }

  void Set(uint64_t index, Word word) {
    if (universe_ > kDenseMemoLimit) {
      map_[index] = word;
      return;
    }
    if (words_ == nullptr) Reserve();
    // order: relaxed — see Get.
    std::atomic_ref<Word>(words_[index]).store(word,
                                               std::memory_order_relaxed);
  }

 private:
  struct FreeDeleter {
    void operator()(Word* words) const { std::free(words); }
  };
  uint64_t universe_;
  std::unique_ptr<Word[], FreeDeleter> words_;
  std::unordered_map<uint64_t, Word> map_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_WORD_MEMO_H_
