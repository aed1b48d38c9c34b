// Machine-adaptive execution (src/tune/) acceptance tests: the sysfs
// topology probe against injected fake trees, the closed-form heuristic's
// determinism, resolve_profile's environment handling, the spec grammar,
// and — the load-bearing contract — that every tuned configuration (an
// injected non-default geometry, the heuristic, first-touch) is
// *bit-identical* to the static oracle (`tune=static` / `QOKIT_TUNE=off`)
// across backends: tuning reorders traversal, never arithmetic.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/qokit.hpp"
#include "common/aligned.hpp"
#include "tune/machine_probe.hpp"
#include "tune/profile.hpp"

namespace qokit {
namespace {

namespace fs = std::filesystem;
using tune::MachineTopology;
using tune::NumaPolicy;
using tune::ProfileSource;
using tune::TuneMode;
using tune::TuneProfile;

/// Scratch directory for this binary's fake sysfs trees.
/// ctest parallelism is across binaries, so a fixed name is race-free.
fs::path scratch_dir() {
  const fs::path dir = fs::temp_directory_path() / "qokit_test_tune";
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << content;
}

/// Save/restore one environment variable across a test (the
/// test_pipeline.cpp idiom, RAII'd).
struct EnvVarGuard {
  explicit EnvVarGuard(std::string name) : name_(std::move(name)) {
    const char* v = std::getenv(name_.c_str());
    had_ = v != nullptr;
    if (v) saved_ = v;
  }
  ~EnvVarGuard() {
    if (had_)
      setenv(name_.c_str(), saved_.c_str(), 1);
    else
      unsetenv(name_.c_str());
  }

 private:
  std::string name_;
  bool had_ = false;
  std::string saved_;
};

/// Deterministic random problem per seed (the cross-validation idiom).
TermList random_problem(std::uint64_t seed, int* n_out) {
  Rng rng(seed * 7919);
  const int n = 8 + static_cast<int>(rng.uniform_int(4));  // 8..11
  *n_out = n;
  switch (seed % 3) {
    case 0:
      return maxcut_terms(Graph::random_regular(n - (n % 2), 3, seed));
    case 1:
      return labs_terms(n);
    default:
      return sk_terms(n, seed);
  }
}

QaoaParams test_schedule() {
  QaoaParams s;
  s.gammas = {0.31, -0.47, 0.83};
  s.betas = {0.78, 0.15, -0.52};
  return s;
}

/// `backend:tune=auto` vs `backend:tune=static`: evolved state and
/// expectation must agree bitwise.
void expect_tuned_matches_static(const TermList& terms,
                                 const std::string& backend) {
  const auto tuned =
      make_simulator(terms, SimulatorSpec::parse(backend + ":tune=auto"));
  const auto oracle =
      make_simulator(terms, SimulatorSpec::parse(backend + ":tune=static"));
  const QaoaParams sched = test_schedule();
  const StateVector a = tuned->simulate_qaoa(sched.gammas, sched.betas);
  const StateVector b = oracle->simulate_qaoa(sched.gammas, sched.betas);
  EXPECT_EQ(a.max_abs_diff(b), 0.0) << backend;
  EXPECT_EQ(tuned->get_expectation(a), oracle->get_expectation(b))
      << backend;
}

MachineTopology topo_with(std::uint64_t l1d, std::uint64_t l2,
                          int cores = 4, int nodes = 1) {
  MachineTopology t;
  t.l1d_bytes = l1d;
  t.l2_bytes = l2;
  t.physical_cores = cores;
  t.logical_cpus = cores;
  t.numa_nodes = nodes;
  return t;
}

// ------------------------------------------------------- topology probe

TEST(MachineProbe, ReadsAnInjectedSysfsTree) {
  const fs::path root = scratch_dir() / "fake_sysfs";
  fs::remove_all(root);
  const fs::path cpu = root / "sys/devices/system/cpu";
  write_file(cpu / "cpu0/cache/index0/type", "Data\n");
  write_file(cpu / "cpu0/cache/index0/level", "1\n");
  write_file(cpu / "cpu0/cache/index0/size", "48K\n");
  write_file(cpu / "cpu0/cache/index0/coherency_line_size", "64\n");
  write_file(cpu / "cpu0/cache/index1/type", "Instruction\n");
  write_file(cpu / "cpu0/cache/index1/level", "1\n");
  write_file(cpu / "cpu0/cache/index1/size", "32K\n");
  write_file(cpu / "cpu0/cache/index2/type", "Unified\n");
  write_file(cpu / "cpu0/cache/index2/level", "2\n");
  write_file(cpu / "cpu0/cache/index2/size", "1024K\n");
  write_file(cpu / "cpu0/cache/index3/type", "Unified\n");
  write_file(cpu / "cpu0/cache/index3/level", "3\n");
  write_file(cpu / "cpu0/cache/index3/size", "32M\n");
  for (int c = 0; c < 8; ++c) {  // 8 logical CPUs, SMT-2: 4 physical cores
    const fs::path topo = cpu / ("cpu" + std::to_string(c)) / "topology";
    write_file(topo / "physical_package_id", "0\n");
    write_file(topo / "core_id", std::to_string(c / 2) + "\n");
  }
  fs::create_directories(root / "sys/devices/system/node/node0");
  fs::create_directories(root / "sys/devices/system/node/node1");
  write_file(root / "proc/cpuinfo",
             "processor\t: 0\nmodel name\t: Fake CPU 9000 @ 3.0GHz\n");

  const MachineTopology topo = tune::probe_machine(root.string());
  EXPECT_EQ(topo.l1d_bytes, 48u * 1024);
  EXPECT_EQ(topo.l2_bytes, 1024u * 1024);
  EXPECT_EQ(topo.l3_bytes, 32u * 1024 * 1024);
  EXPECT_EQ(topo.cache_line_bytes, 64u);
  EXPECT_EQ(topo.logical_cpus, 8);
  EXPECT_EQ(topo.physical_cores, 4);
  EXPECT_EQ(topo.numa_nodes, 2);
  EXPECT_EQ(topo.cpu_model, "Fake CPU 9000 @ 3.0GHz");
  // Injected roots never consult the host (sysconf / SIMD detection are
  // real-machine-only): the fake tree sees exactly what it describes.
  EXPECT_EQ(topo.simd_level, "scalar");
}

TEST(MachineProbe, MissingTreeKeepsConservativeDefaults) {
  const fs::path root = scratch_dir() / "empty_root";
  fs::remove_all(root);
  fs::create_directories(root);
  const MachineTopology defaults;
  EXPECT_EQ(tune::probe_machine(root.string()), defaults);
}

TEST(MachineProbe, RealMachineProbeIsSane) {
  const MachineTopology topo = tune::probe_machine();
  EXPECT_GE(topo.l1d_bytes, 1024u);
  EXPECT_GE(topo.l2_bytes, topo.l1d_bytes);
  EXPECT_GE(topo.physical_cores, 1);
  EXPECT_GE(topo.logical_cpus, topo.physical_cores);
  EXPECT_GE(topo.numa_nodes, 1);
  EXPECT_FALSE(topo.cpu_model.empty());
  EXPECT_FALSE(topo.simd_level.empty());
}

// --------------------------------------------------- heuristic profile

TEST(HeuristicProfile, ReproducesTheHandTunedDefaultsOnTheReferenceClass) {
  // The 32 KiB-L1d / 2 MiB-L2 machine class the static constants were
  // tuned for must map back onto exactly those constants.
  const TuneProfile p = tune::heuristic_profile(topo_with(32 << 10, 2 << 20));
  EXPECT_EQ(p.geometry, pipeline::Geometry::defaults());
  EXPECT_EQ(p.source, ProfileSource::Heuristic);
  EXPECT_EQ(p.threads, 4);
  EXPECT_EQ(p.numa, NumaPolicy::None);
}

TEST(HeuristicProfile, ScalesWithTheCacheHierarchyAndIsDeterministic) {
  {
    // Big server part: 48 KiB L1d, 8 MiB L2 → wider tiles, full groups.
    const TuneProfile p =
        tune::heuristic_profile(topo_with(48 << 10, 8 << 20, 32, 2));
    EXPECT_EQ(p.geometry, (pipeline::Geometry{18, 8, 10}));
    EXPECT_EQ(p.threads, 32);
    EXPECT_EQ(p.numa, NumaPolicy::FirstTouch);
  }
  {
    // Small embedded part: 16 KiB L1d, 256 KiB L2 → clamped low end.
    const TuneProfile p =
        tune::heuristic_profile(topo_with(16 << 10, 256 << 10, 2));
    EXPECT_EQ(p.geometry, (pipeline::Geometry{13, 4, 9}));
    EXPECT_EQ(p.numa, NumaPolicy::None);
  }
  // Pure function: same topology in, same profile out.
  const MachineTopology topo = topo_with(48 << 10, 8 << 20, 32, 2);
  EXPECT_EQ(tune::heuristic_profile(topo), tune::heuristic_profile(topo));
}

// ------------------------------------------------------ resolve_profile

TEST(ResolveProfile, EnvOffPinsTheStaticOracle) {
  const EnvVarGuard tune_guard("QOKIT_TUNE");
  for (const char* off : {"off", "OFF", "static", "0", "false"}) {
    ASSERT_EQ(setenv("QOKIT_TUNE", off, 1), 0);
    EXPECT_EQ(tune::resolve_profile(TuneMode::Auto), tune::static_profile())
        << off;
  }
}

TEST(ResolveProfile, AutoWithoutEnvResolvesTheHeuristic) {
  const EnvVarGuard tune_guard("QOKIT_TUNE");
  ASSERT_EQ(unsetenv("QOKIT_TUNE"), 0);
  const TuneProfile p = tune::resolve_profile(TuneMode::Auto);
  EXPECT_EQ(p.source, ProfileSource::Heuristic);
  EXPECT_EQ(p, tune::heuristic_profile(tune::probe_machine()));
  // Static never consults the probe or the environment.
  EXPECT_EQ(tune::resolve_profile(TuneMode::Static), tune::static_profile());
}

// ----------------------------------------------------- spec plumbing

TEST(TuneSpec, GrammarRoundTripsAndRejectsBadValues) {
  EXPECT_EQ(SimulatorSpec::parse("auto").tune, TuneMode::Auto);
  EXPECT_EQ(SimulatorSpec::parse("auto:tune=auto").tune, TuneMode::Auto);
  EXPECT_EQ(SimulatorSpec::parse("auto:tune=static").tune, TuneMode::Static);
  // "off" is an alias for static and canonicalizes to it.
  const SimulatorSpec off = SimulatorSpec::parse("auto:tune=off");
  EXPECT_EQ(off.tune, TuneMode::Static);
  EXPECT_EQ(off.to_string(), "auto:tune=static");
  EXPECT_EQ(SimulatorSpec::parse(off.to_string()), off);
  // Spellings outside the grammar (a search mode, profile file paths,
  // alltoall transport names) are unrecognized tokens, and the error
  // names them.
  struct Case {
    const char* name;
    const char* offending;
  };
  for (const Case c :
       {Case{"auto:tune=", "tune="}, Case{"auto:tune=search", "tune=search"},
        Case{"u16:tune=/tmp/prof.json", "tune=/tmp/prof.json"},
        Case{"auto:tune=/nonexistent.json", "tune=/nonexistent.json"},
        Case{"dist:4:staged", "staged"}, Case{"dist:4:pairwise", "pairwise"},
        Case{"dist:4:direct", "direct"},
        Case{"dist:4:alltoall=pairwise", "alltoall=pairwise"},
        Case{"auto:alltoall=staged", "alltoall=staged"}}) {
    try {
      (void)SimulatorSpec::parse(c.name);
      ADD_FAILURE() << "parse accepted '" << c.name << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.offending), std::string::npos)
          << c.name << " -> " << e.what();
    }
  }
}

TEST(TuneSpec, ResolvedGeometryReachesTheSimulatorConfig) {
  const EnvVarGuard tune_guard("QOKIT_TUNE");
  ASSERT_EQ(unsetenv("QOKIT_TUNE"), 0);
  const TermList terms = sk_terms(8, 7);
  const auto tuned = make_simulator(terms, SimulatorSpec::parse("auto"));
  const auto* tuned_fur = dynamic_cast<const FurQaoaSimulator*>(tuned.get());
  ASSERT_NE(tuned_fur, nullptr);
  EXPECT_EQ(tuned_fur->config().pipeline.geometry,
            tune::resolve_profile(TuneMode::Auto).geometry);
  // tune=static pins the pre-tune constants.
  const auto pinned =
      make_simulator(terms, SimulatorSpec::parse("auto:tune=static"));
  const auto* pinned_fur =
      dynamic_cast<const FurQaoaSimulator*>(pinned.get());
  ASSERT_NE(pinned_fur, nullptr);
  EXPECT_EQ(pinned_fur->config().pipeline.geometry,
            pipeline::Geometry::defaults());
}

// --------------------------------------------------- the identity oracle

/// The backend spelled by `spec`, built directly with pipeline geometry
/// `geometry` and amplitude precision `prec` (the injection point a tune
/// profile uses inside make_simulator).
std::unique_ptr<QaoaFastSimulatorBase> with_geometry(
    const TermList& terms, const SimulatorSpec& spec,
    pipeline::Geometry geometry, Precision prec) {
  if (spec.backend == Backend::Dist)
    return std::make_unique<DistributedFurSimulator>(
        terms, DistConfig{.ranks = spec.ranks,
                          .pipeline = {.geometry = geometry},
                          .prec = prec});
  FurConfig cfg;
  cfg.exec = spec.exec;
  cfg.use_u16 = spec.backend == Backend::U16;
  if (spec.backend == Backend::Fwht) cfg.backend = MixerBackend::Fwht;
  cfg.pipeline.geometry = geometry;
  cfg.prec = prec;
  return std::make_unique<FurQaoaSimulator>(terms, cfg);
}

TEST(TuneIdentity, InjectedGeometryIsBitIdenticalToStaticOnEveryBackend) {
  // {12, 3, 8} is deliberately unlike the defaults; the n = 14 problem is
  // wider than the 2^12 tile, so the strided group passes run too.
  const pipeline::Geometry geometry{12, 3, 8};
  std::vector<TermList> problems;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    int n = 0;
    problems.push_back(random_problem(seed, &n));
  }
  problems.push_back(sk_terms(14, 5));
  const QaoaParams sched = test_schedule();
  for (const TermList& terms : problems)
    for (const char* backend :
         {"serial", "threaded", "auto:exec=serial", "u16", "fwht",
          "u16:exec=serial", "dist:2"})
      for (const Precision prec : {Precision::F64, Precision::F32}) {
        const std::string oracle_spec =
            std::string(backend) + ":tune=static:prec=" +
            (prec == Precision::F32 ? "f32" : "f64");
        const auto oracle =
            make_simulator(terms, SimulatorSpec::parse(oracle_spec));
        const auto tuned = with_geometry(
            terms, SimulatorSpec::parse(backend), geometry, prec);
        const StateVector a = tuned->simulate_qaoa(sched.gammas, sched.betas);
        const StateVector b =
            oracle->simulate_qaoa(sched.gammas, sched.betas);
        EXPECT_EQ(a.max_abs_diff(b), 0.0) << oracle_spec;
        EXPECT_EQ(tuned->get_expectation(a), oracle->get_expectation(b))
            << oracle_spec;
      }
}

TEST(TuneIdentity, HeuristicIsBitIdenticalToStatic) {
  const EnvVarGuard tune_guard("QOKIT_TUNE");
  ASSERT_EQ(unsetenv("QOKIT_TUNE"), 0);
  int n = 0;
  const TermList terms = random_problem(4, &n);
  for (const char* backend : {"auto", "u16", "fwht", "dist:2"})
    expect_tuned_matches_static(terms, backend);
}

TEST(TuneIdentity, FirstTouchPlacementIsBitIdentical) {
  // n = 16 → a 1 MiB statevector, exactly the first-touch threshold: the
  // parallel page-touch runs, and must only move pages, never bits.
  const TermList terms = sk_terms(16, 3);
  const QaoaParams sched = test_schedule();
  const bool saved = first_touch_enabled();
  set_first_touch_enabled(false);
  const auto plain =
      make_simulator(terms, SimulatorSpec::parse("auto:tune=static"));
  const StateVector base = plain->simulate_qaoa(sched.gammas, sched.betas);
  set_first_touch_enabled(true);
  const auto touched =
      make_simulator(terms, SimulatorSpec::parse("auto:tune=static"));
  const StateVector after =
      touched->simulate_qaoa(sched.gammas, sched.betas);
  set_first_touch_enabled(saved);
  EXPECT_EQ(base.max_abs_diff(after), 0.0);
  EXPECT_EQ(plain->get_expectation(base), touched->get_expectation(after));
}

}  // namespace
}  // namespace qokit
