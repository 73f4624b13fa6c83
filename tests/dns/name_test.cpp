#include "dns/name.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "dns/zone.hpp"

namespace crp::dns {
namespace {

TEST(Name, ParseBasic) {
  const Name n = Name::parse("www.example.com");
  EXPECT_EQ(n.num_labels(), 3u);
  EXPECT_EQ(n.to_string(), "www.example.com");
}

TEST(Name, CaseInsensitive) {
  EXPECT_EQ(Name::parse("WWW.Example.COM"), Name::parse("www.example.com"));
}

TEST(Name, TrailingDotIgnored) {
  EXPECT_EQ(Name::parse("example.com."), Name::parse("example.com"));
}

TEST(Name, RootName) {
  const Name root = Name::parse("");
  EXPECT_TRUE(root.empty());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(Name::parse("."), root);
}

TEST(Name, RejectsEmptyLabel) {
  EXPECT_THROW((void)Name::parse("a..b"), std::invalid_argument);
  EXPECT_THROW((void)Name::parse(".a"), std::invalid_argument);
}

TEST(Name, RejectsOversizedLabel) {
  const std::string big(64, 'x');
  EXPECT_THROW((void)Name::parse(big + ".com"), std::invalid_argument);
  const std::string ok(63, 'x');
  EXPECT_NO_THROW((void)Name::parse(ok + ".com"));
}

TEST(Name, SubdomainRelation) {
  const Name sub = Name::parse("a.b.example.com");
  EXPECT_TRUE(sub.is_subdomain_of(Name::parse("example.com")));
  EXPECT_TRUE(sub.is_subdomain_of(Name::parse("b.example.com")));
  EXPECT_TRUE(sub.is_subdomain_of(sub));          // itself
  EXPECT_TRUE(sub.is_subdomain_of(Name::parse("")));  // root
  EXPECT_FALSE(sub.is_subdomain_of(Name::parse("other.com")));
  EXPECT_FALSE(Name::parse("example.com")
                   .is_subdomain_of(Name::parse("a.example.com")));
}

TEST(Name, SuffixMatchIsLabelwiseNotTextual) {
  // "badexample.com" must NOT be a subdomain of "example.com".
  EXPECT_FALSE(Name::parse("badexample.com")
                   .is_subdomain_of(Name::parse("example.com")));
}

TEST(Name, Prefixed) {
  const Name zone = Name::parse("g.cdnsim.net");
  EXPECT_EQ(zone.prefixed("c0").to_string(), "c0.g.cdnsim.net");
  EXPECT_TRUE(zone.prefixed("c0").is_subdomain_of(zone));
}

TEST(Name, OrderingAndHash) {
  std::unordered_set<Name> set;
  set.insert(Name::parse("a.com"));
  set.insert(Name::parse("A.COM"));
  set.insert(Name::parse("b.com"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_LT(Name::parse("a.com"), Name::parse("b.com"));
}

// --- interning ---------------------------------------------------------

static_assert(sizeof(Name) == sizeof(void*));

/// Two names are one handle: equal, and the same label storage.
void expect_one_handle(const Name& a, const Name& b) {
  EXPECT_EQ(a, b) << a.to_string() << " vs " << b.to_string();
  EXPECT_EQ(a.labels().data(), b.labels().data()) << a.to_string();
}

TEST(NameIntern, EqualNamesShareOneHandle) {
  const Name n = Name::parse("www.example.com");
  expect_one_handle(Name::parse("WWW.Example.COM"), n);
  expect_one_handle(Name::parse("www.example.com."), n);
  expect_one_handle(Name::parse("wWw.EXAMPLE.com."), n);
  expect_one_handle(Name::parse("example.com").prefixed("www"), n);
  expect_one_handle(Name::parse("com").prefixed("WWW.Example"), n);
  expect_one_handle(Name{}.prefixed("www.example.com."), n);
  expect_one_handle(n.prefixed(""), n);
  for (const std::string& label : n.labels()) {
    EXPECT_TRUE(std::ranges::none_of(
        label, [](char c) { return c >= 'A' && c <= 'Z'; }));
  }
  // Parents are the interned suffixes; the root is its own parent.
  expect_one_handle(n.parent(), Name::parse("EXAMPLE.com"));
  expect_one_handle(n.parent().parent(), Name::parse("com"));
  EXPECT_EQ(n.parent().parent().parent(), Name{});
  EXPECT_EQ(Name{}.parent(), Name{});
  EXPECT_EQ(Name::parse("."), Name{});
  EXPECT_NE(Name::parse("example.com"), Name::parse("example.org"));
  EXPECT_NE(Name::parse("a.b"), Name::parse("ab"));
}

TEST(NameIntern, ConcurrentParsesMatchSerialHandles) {
  // Four threads parse overlapping lists of 1,000 fresh names at once
  // (neighbouring lists share 500), in alternating directions.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  const auto text = [](int k) {
    return "n" + std::to_string(k) + ".z" + std::to_string(k % 7) +
           ".Intern-Race.test";
  };
  std::vector<std::vector<Name>> parsed(kThreads);
  std::latch start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Name>& out = parsed[static_cast<std::size_t>(t)];
      out.resize(kPerThread);
      start.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        const int at = t % 2 == 0 ? i : kPerThread - 1 - i;
        out[static_cast<std::size_t>(at)] = Name::parse(text(t * 500 + at));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const Name& got = parsed[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(i)];
      const Name serial = Name::parse(text(t * 500 + i));
      ASSERT_EQ(got, serial) << text(t * 500 + i);
      ASSERT_EQ(got.labels().data(), serial.labels().data());
      ASSERT_EQ(got.to_string(), serial.to_string());
      ASSERT_EQ(got.parent(), Name::parse(serial.to_string().substr(
                                  serial.labels()[0].size() + 1)));
    }
  }
}

/// FNV-1a over the labels, each label closed by '.': the hash names had
/// before interning, written out.
std::size_t fnv1a_over_labels(const std::vector<std::string>& labels) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::string& label : labels) {
    for (const char c : label) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= '.';
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h);
}

TEST(NameIntern, HashIsFnv1aOverTheLabels) {
  EXPECT_EQ(std::hash<Name>{}(Name{}), fnv1a_over_labels({}));
  Rng rng{88};
  const std::string alphabet = "abcxyz019-";
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::string> labels(
        static_cast<std::size_t>(rng.uniform_int(0, 5)));
    std::string text;
    for (std::string& label : labels) {
      const auto length = rng.uniform_int(1, 12);
      for (std::int64_t k = 0; k < length; ++k) {
        label += alphabet[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(alphabet.size()) - 1))];
      }
      if (!text.empty()) text += '.';
      text += label;
    }
    const Name name = Name::parse(text);
    ASSERT_EQ(std::hash<Name>{}(name), fnv1a_over_labels(labels)) << text;
    ASSERT_EQ(name.hash(), fnv1a_over_labels(labels)) << text;
  }
}

/// Random names over a three-label alphabet, so that suffixes collide,
/// up to five labels deep; the root comes first.
std::vector<Name> colliding_names(Rng& rng, std::size_t count) {
  const std::vector<std::string> alphabet = {"a", "b", "ab"};
  std::vector<Name> names{Name{}};
  while (names.size() < count) {
    std::string text;
    const auto depth = rng.uniform_int(1, 5);
    for (std::int64_t k = 0; k < depth; ++k) {
      if (!text.empty()) text += '.';
      text += rng.pick(alphabet);
    }
    names.push_back(Name::parse(text));
  }
  return names;
}

std::vector<std::string> copy_labels(const Name& name) {
  return {name.labels().begin(), name.labels().end()};
}

/// `suffix`'s labels end `name`'s labels.
bool label_suffix(const std::vector<std::string>& name,
                  const std::vector<std::string>& suffix) {
  return suffix.size() <= name.size() &&
         std::equal(suffix.rbegin(), suffix.rend(), name.rbegin());
}

TEST(NameIntern, OrderAndSubdomainMatchLabelReferences) {
  Rng rng{89};
  const std::vector<Name> names = colliding_names(rng, 120);
  std::size_t subdomains = 0;
  std::size_t deep = 0;
  for (const Name& x : names) {
    for (const Name& y : names) {  // self included
      const std::vector<std::string> lx = copy_labels(x);
      const std::vector<std::string> ly = copy_labels(y);
      ASSERT_EQ(x <=> y, lx <=> ly) << x.to_string() << " " << y.to_string();
      ASSERT_EQ(x == y, lx == ly);
      const bool want = label_suffix(lx, ly);
      ASSERT_EQ(x.is_subdomain_of(y), want)
          << x.to_string() << " under " << y.to_string();
      if (want) ++subdomains;
      if (want && lx.size() >= ly.size() + 2) ++deep;
    }
  }
  // Suffixes two or more labels up, not only the parent, are exercised.
  EXPECT_GT(deep, 500u);
  EXPECT_LT(subdomains, names.size() * names.size());
}

TEST(NameIntern, ZoneLookupMatchesLongestSuffixReference) {
  Rng rng{90};
  const std::vector<Name> names = colliding_names(rng, 200);
  for (const bool with_root : {false, true}) {
    ZoneRegistry registry;
    std::vector<std::unique_ptr<StaticZone>> zones;
    std::map<std::vector<std::string>, AuthoritativeServer*> reference;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const bool root = names[i].empty();
      if (root ? !with_root : !rng.bernoulli(0.25)) continue;
      zones.push_back(std::make_unique<StaticZone>(
          names[i], HostId{static_cast<std::uint32_t>(i)}));
      registry.register_zone(names[i], zones.back().get());
      reference[copy_labels(names[i])] = zones.back().get();
    }
    std::size_t found = 0;
    for (const Name& name : names) {
      const std::vector<std::string> labels = copy_labels(name);
      AuthoritativeServer* want = nullptr;
      for (std::size_t drop = 0; drop <= labels.size() && want == nullptr;
           ++drop) {
        const auto it = reference.find(
            {labels.begin() + static_cast<long>(drop), labels.end()});
        if (it != reference.end()) want = it->second;
      }
      ASSERT_EQ(registry.find(name), want) << name.to_string();
      if (want != nullptr) ++found;
    }
    EXPECT_GT(found, 0u);
    EXPECT_EQ(found == names.size(), with_root);
  }
}

}  // namespace
}  // namespace crp::dns
