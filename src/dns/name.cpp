#include "dns/name.hpp"

#include <algorithm>
#include <cctype>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace crp::dns {

namespace {

// Splits dotted text into lower-case labels, appending them to `out`.
void append_labels(std::string_view text, std::vector<std::string>& out) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return;  // root

  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::size_t end = dot == std::string_view::npos ? text.size() : dot;
    if (end == start) {
      throw std::invalid_argument{"Name::parse: empty label"};
    }
    if (end - start > 63) {
      throw std::invalid_argument{"Name::parse: label exceeds 63 octets"};
    }
    std::string label{text.substr(start, end - start)};
    std::transform(label.begin(), label.end(), label.begin(), [](char c) {
      return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    });
    out.push_back(std::move(label));
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
}

}  // namespace

Name Name::parse(std::string_view text) {
  std::vector<std::string> labels;
  append_labels(text, labels);
  return intern(labels);
}

Name Name::prefixed(std::string_view label) const {
  std::vector<std::string> labels;
  append_labels(label, labels);
  const auto own = this->labels();
  labels.insert(labels.end(), own.begin(), own.end());
  return intern(labels);
}

Name Name::intern(const std::vector<std::string>& labels) {
  if (labels.empty()) return Name{};
  // Lower-case dotted text -> node. `unordered_map` never moves a node,
  // and the table is reached through a pointer that is never deleted: no
  // exit-time destructor can free a node that a static Name still points
  // to, and leak checkers see every node as reachable.
  struct Table {
    std::mutex mu;
    std::unordered_map<std::string, Node> nodes;
  };
  static Table* const table = new Table;

  std::string text;
  for (const std::string& label : labels) {
    if (!text.empty()) text += '.';
    text += label;
  }
  const std::lock_guard<std::mutex> lock{table->mu};
  // Intern the shortest suffix first, so each node's parent exists.
  const Node* parent = nullptr;
  std::size_t offset = text.size();  // where the suffix's text starts
  for (std::size_t i = labels.size(); i-- > 0;) {
    offset -= labels[i].size() + (i + 1 < labels.size() ? 1 : 0);
    const auto [it, inserted] = table->nodes.try_emplace(text.substr(offset));
    Node& node = it->second;
    if (inserted) {
      node.labels.assign(labels.begin() + static_cast<long>(i), labels.end());
      node.hash = kRootHash;
      for (const std::string& l : node.labels) {
        for (const char c : l) {
          node.hash ^= static_cast<unsigned char>(c);
          node.hash *= 1099511628211ULL;
        }
        node.hash ^= '.';
        node.hash *= 1099511628211ULL;
      }
      node.parent = parent;
    }
    parent = &node;
  }
  return Name{parent};
}

bool Name::is_subdomain_of(const Name& suffix) const {
  const std::size_t n = num_labels();
  const std::size_t m = suffix.num_labels();
  if (m > n) return false;
  const Node* node = node_;
  for (std::size_t k = n - m; k > 0; --k) node = node->parent;
  return node == suffix.node_;
}

std::strong_ordering operator<=>(const Name& a, const Name& b) {
  if (a.node_ == b.node_) return std::strong_ordering::equal;
  const auto x = a.labels();
  const auto y = b.labels();
  return std::lexicographical_compare_three_way(x.begin(), x.end(),
                                                y.begin(), y.end());
}

std::string Name::to_string() const {
  if (empty()) return ".";
  std::string out;
  for (const std::string& label : labels()) {
    if (!out.empty()) out += '.';
    out += label;
  }
  return out;
}

}  // namespace crp::dns
