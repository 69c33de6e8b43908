// Semantic query expansion — the paper's fourth motivating application
// (§1): given a semantic link network over keywords, expand a query term
// with the other members of its "semantic community".
//
// The example builds a small hand-labeled sense network (a WordNet-style
// stand-in, cf. the paper's Figure 6(b) case study) and expands a few
// query words at different tightness thresholds.
//
//   ./build/examples/semantic_expansion [--word=image] [--k=3]

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/searcher.h"
#include "graph/builder.h"
#include "util/cli.h"

namespace {

using locs::VertexId;

/// A tiny labeled semantic network around photography, documents, and
/// music, with dense synonym clusters and sparse cross-topic links.
class SenseNetwork {
 public:
  SenseNetwork() {
    // Photography cluster.
    Clique({"image", "picture", "photo", "snapshot", "shot"});
    // Document cluster.
    Clique({"document", "file", "record", "report"});
    // Music cluster.
    Clique({"song", "track", "tune", "melody", "recording"});
    // Weak cross-topic bridges (polysemy).
    Link("shot", "record");       // a "shot" recorded
    Link("record", "recording");  // record/recording polysemy
    Link("file", "track");        // file a track
    Link("picture", "document");  // a picture document
  }

  locs::Graph Build() const {
    locs::GraphBuilder builder(static_cast<VertexId>(names_.size()));
    for (const auto& [u, v] : edges_) builder.AddEdge(u, v);
    return builder.Build();
  }

  VertexId Id(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<VertexId>(names_.size());
    ids_.emplace(name, id);
    names_.push_back(name);
    return id;
  }

  const std::string& Name(VertexId v) const { return names_[v]; }
  bool Has(const std::string& name) const { return ids_.count(name) > 0; }

 private:
  void Link(const std::string& a, const std::string& b) {
    edges_.emplace_back(Id(a), Id(b));
  }

  void Clique(const std::vector<std::string>& words) {
    for (size_t i = 0; i < words.size(); ++i) {
      for (size_t j = i + 1; j < words.size(); ++j) {
        Link(words[i], words[j]);
      }
    }
  }

  std::map<std::string, VertexId> ids_;
  std::vector<std::string> names_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace locs;
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"word", "k"};
  uint32_t k = 3;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "k", &k, &error)) {
    return FlagError(error);
  }
  const std::string word = cli.GetString("word", "image");

  SenseNetwork net;
  if (!net.Has(word)) {
    std::printf("unknown word '%s'; try image, document, song, record\n",
                word.c_str());
    return 1;
  }
  CommunitySearcher searcher(net.Build());
  const VertexId query = net.Id(word);

  std::printf("semantic network: %u senses, %lu links\n",
              searcher.graph().NumVertices(),
              static_cast<unsigned long>(searcher.graph().NumEdges()));

  const auto expansion = searcher.Cst(query, k);
  if (!expansion.has_value()) {
    std::printf("no semantic community of tightness %u around '%s'\n", k,
                word.c_str());
    return 0;
  }
  std::printf("expanding '%s' at tightness k=%u:", word.c_str(), k);
  for (VertexId v : expansion->members) {
    if (v != query) std::printf(" %s", net.Name(v).c_str());
  }
  std::printf("\n");

  // The best community, regardless of threshold.
  const Community best = *searcher.Csm(query);
  std::printf("tightest community around '%s' (δ=%u):", word.c_str(),
              best.min_degree);
  for (VertexId v : best.members) {
    if (v != query) std::printf(" %s", net.Name(v).c_str());
  }
  std::printf("\nBridges like record/recording stay outside: the minimum-"
              "degree measure rejects weakly linked senses (the paper's "
              "Example 1 rationale).\n");
  return 0;
}
