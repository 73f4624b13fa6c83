// DNS domain names.
//
// Names are lower-cased label sequences ("www.example.com" -> ["www",
// "example", "com"]). Suffix matching on labels drives zone delegation in
// the registry, mirroring how real resolution walks the name hierarchy.
//
// A `Name` is an interned handle (hash-consing: E. Goto, "Monocopy and
// Associative Algorithms in an Extended Lisp", 1974): one pointer to an
// immutable node that holds the labels, the name's hash and the node of
// its parent (the name minus its first label). `parse` and `prefixed`
// look each name up in one process-wide table, so equal names share one
// node, and copying, hashing and comparing a name for equality cost O(1).
// The table never frees a node. Reads never lock; only `parse` and
// `prefixed` take the table's mutex, and both run at setup (catalogs,
// zones, tests), never per query.
#pragma once

#include <compare>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace crp::dns {

class Name {
 public:
  /// The root name (no labels).
  Name() = default;

  /// Parses dotted notation; case-insensitive; trailing dot allowed.
  /// Throws std::invalid_argument on empty labels ("a..b") or labels
  /// longer than 63 octets.
  static Name parse(std::string_view text);

  [[nodiscard]] bool empty() const { return node_ == nullptr; }
  [[nodiscard]] std::size_t num_labels() const {
    return node_ == nullptr ? 0 : node_->labels.size();
  }
  /// Most-specific first, lower-case.
  [[nodiscard]] std::span<const std::string> labels() const {
    if (node_ == nullptr) return {};
    return node_->labels;
  }
  /// The name minus its first label; the root's parent is the root.
  [[nodiscard]] Name parent() const {
    return node_ == nullptr ? Name{} : Name{node_->parent};
  }

  /// True if `suffix`'s labels are a trailing subsequence of this name's
  /// labels. A name is a subdomain of itself. The empty name (root) is a
  /// suffix of everything.
  [[nodiscard]] bool is_subdomain_of(const Name& suffix) const;

  /// Name with `label` prepended (e.g. "a" + example.com = a.example.com).
  [[nodiscard]] Name prefixed(std::string_view label) const;

  [[nodiscard]] std::string to_string() const;

  /// FNV-1a over the labels, each label closed by '.'; computed once,
  /// when the name is interned.
  [[nodiscard]] std::size_t hash() const {
    return node_ == nullptr ? kRootHash : node_->hash;
  }

  friend bool operator==(const Name& a, const Name& b) {
    return a.node_ == b.node_;
  }
  /// Lexicographic over the labels (each label compared as a string).
  friend std::strong_ordering operator<=>(const Name& a, const Name& b);

 private:
  struct Node {
    std::vector<std::string> labels;
    std::size_t hash = 0;
    const Node* parent = nullptr;  // nullptr: the root
  };
  static constexpr std::size_t kRootHash = 14695981039346656037ULL;

  explicit Name(const Node* node) : node_(node) {}
  /// The handle of `labels` (lower-case, validated), interning it and
  /// each of its suffixes on first sight.
  static Name intern(const std::vector<std::string>& labels);

  const Node* node_ = nullptr;  // nullptr: the root
};

}  // namespace crp::dns

namespace std {
template <>
struct hash<crp::dns::Name> {
  size_t operator()(const crp::dns::Name& n) const noexcept {
    return n.hash();
  }
};
}  // namespace std
