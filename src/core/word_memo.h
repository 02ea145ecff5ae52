// WordMemo: the tree's one per-node memo. One word per view element graph
// node, keyed by its ElementIndexer index, 0 meaning "not yet visited". Up
// to kDenseMemoLimit nodes it is a flat table calloc'd on the first Set(),
// so an unwritten memo allocates nothing and pages holding no visited node
// are never backed; above the limit it hashes the visited nodes. Unlocked.

#ifndef VECUBE_CORE_WORD_MEMO_H_
#define VECUBE_CORE_WORD_MEMO_H_

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

  [[nodiscard]] Word Get(uint64_t index) const {
    if (universe_ <= kDenseMemoLimit) {
      return words_ != nullptr ? words_[index] : Word{0};
    }
    auto it = map_.find(index);
    return it == map_.end() ? Word{0} : it->second;
  }

  void Set(uint64_t index, Word word) {
    if (universe_ > kDenseMemoLimit) {
      map_[index] = word;
      return;
    }
    if (words_ == nullptr) {
      words_.reset(static_cast<Word*>(std::calloc(universe_, sizeof(Word))));
      VECUBE_CHECK(words_ != nullptr);
    }
    words_[index] = word;
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
