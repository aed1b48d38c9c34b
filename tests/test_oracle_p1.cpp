// An oracle that shares no code with the statevector path: the closed-form
// p = 1 QAOA expectation of unweighted MaxCut (Wang, Hadfield, Jiang and
// Rieffel, "Quantum approximate optimization algorithm for MaxCut: A
// fermionic view", PRA 97, 022304 (2018)). Each edge's term depends only
// on the two endpoint degrees and the number of triangles through the
// edge, so a wrong start amplitude, a lost normalization or a mixer/phase
// sign slip fails here even when every self-consistency suite (fused ==
// unfused, half == full, Serial == Parallel) still agrees with itself.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/qokit.hpp"

namespace qokit {
namespace {

/// <f> after one layer, f(x) = sum_uv (z_u z_v - 1) / 2 = -cut(x) (the
/// maxcut_terms cost), state e^{-i beta B} e^{-i gamma f} |+>^n. Wang et
/// al. give <C_uv> for C_uv = (1 - Z_u Z_v) / 2 under e^{-i gamma' C}:
///   1/2 + sin(4b) sin(g') (cos^du g' + cos^dv g') / 4
///       - sin^2(2b) cos^(du + dv - 2 l) g' (1 - cos^l 2g') / 4,
/// du = deg(u) - 1, dv = deg(v) - 1, l = triangles through uv. Here
/// f = -sum C_uv, so e^{-i gamma f} is their phase at g' = -gamma.
double closed_form_p1(const Graph& graph, double gamma, double beta) {
  const int n = graph.num_vertices();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  std::vector<int> deg(n, 0);
  for (const Edge& e : graph.edges()) {
    adj[e.u][e.v] = adj[e.v][e.u] = true;
    ++deg[e.u];
    ++deg[e.v];
  }
  const double g = -gamma;
  double total = 0.0;
  for (const Edge& e : graph.edges()) {
    int tri = 0;
    for (int w = 0; w < n; ++w)
      if (adj[e.u][w] && adj[e.v][w]) ++tri;
    const int du = deg[e.u] - 1;
    const int dv = deg[e.v] - 1;
    const double c_uv =
        0.5 +
        0.25 * std::sin(4 * beta) * std::sin(g) *
            (std::pow(std::cos(g), du) + std::pow(std::cos(g), dv)) -
        0.25 * std::pow(std::sin(2 * beta), 2) *
            std::pow(std::cos(g), du + dv - 2 * tri) *
            (1 - std::pow(std::cos(2 * g), tri));
    total -= c_uv;
  }
  return total;
}

int triangles(const Graph& graph) {
  const int n = graph.num_vertices();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const Edge& e : graph.edges()) adj[e.u][e.v] = adj[e.v][e.u] = true;
  int count = 0;
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      for (int c = b + 1; c < n; ++c)
        if (adj[a][b] && adj[b][c] && adj[a][c]) ++count;
  return count;
}

struct Case {
  std::string name;
  Graph graph;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const int n : {8, 12, 16, 20})
    out.push_back({"3-regular n=" + std::to_string(n),
                   Graph::random_regular(n, 3, 100 + n)});
  for (const int n : {10, 13, 15})
    out.push_back({"erdos-renyi n=" + std::to_string(n),
                   Graph::erdos_renyi(n, 0.4, 200 + n)});
  return out;
}

TEST(OracleP1, ClosedFormMaxCutMatchesEverySession) {
  const std::vector<std::pair<double, double>> angles{
      {0.37, 0.21}, {-0.8, 0.55}, {1.3, -0.4}};
  int with_triangles = 0;
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    with_triangles += triangles(c.graph) > 0 ? 1 : 0;
    const TermList terms = maxcut_terms(c.graph);
    for (const char* spelling :
         {"auto", "auto:pipeline=off", "auto:prec=f32", "dist:2",
          "gatesim"}) {
      SCOPED_TRACE(spelling);
      const api::ProblemSession session(terms,
                                        SimulatorSpec::parse(spelling));
      // f64 to 1e-10 relative; f32 (also what QOKIT_PREC=f32 resolves
      // plain spellings to) within test_precision's expectation budget.
      const bool f32 = session.simulator().precision() == Precision::F32;
      for (const auto& [gamma, beta] : angles) {
        QaoaParams q;
        q.gammas = {gamma};
        q.betas = {beta};
        const double want = closed_form_p1(c.graph, gamma, beta);
        const double got = *session.evaluate(q).expectation;
        const double tol =
            f32 ? 1e-2 : 1e-10 * std::max(1.0, std::abs(want));
        EXPECT_NEAR(got, want, tol) << "gamma=" << gamma << " beta=" << beta;
      }
    }
  }
  // The triangle term of the formula is exercised, not just the tree-like
  // one.
  EXPECT_GE(with_triangles, 3);
}

TEST(OracleP1, ZeroAnglesGiveHalfTheEdgesCut) {
  // |+>^n cuts every edge with probability 1/2: <f> = -|E| / 2, a check
  // on the start state's amplitude and normalization alone.
  const Graph graph = Graph::random_regular(14, 3, 7);
  QaoaParams q;
  q.gammas = {0.0};
  q.betas = {0.0};
  const double want = -0.5 * static_cast<double>(graph.num_edges());
  EXPECT_EQ(closed_form_p1(graph, 0.0, 0.0), want);
  for (const char* spelling : {"auto", "auto:pipeline=off", "dist:2",
                               "gatesim"}) {
    const api::ProblemSession session(maxcut_terms(graph),
                                      SimulatorSpec::parse(spelling));
    EXPECT_NEAR(*session.evaluate(q).expectation, want, 1e-5) << spelling;
  }
}

}  // namespace
}  // namespace qokit
