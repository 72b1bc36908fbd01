// Loader corner cases beyond the main semantics suite: app-cache dialect
// interactions, $ORIGIN in needed entries, relative search dirs, nested
// dlopen, and cache staleness. At the bottom: the candidate probe
// (FileSystem::open_child) against the full open() walk it stands in for.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/shrinkwrap/ldcache.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::loader {
namespace {

using elf::install_object;
using elf::make_executable;
using elf::make_library;

class LoaderEdgeTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs_;
};

TEST_F(LoaderEdgeTest, OriginInNeededEntryExpands) {
  install_object(fs_, "/app/lib/libx.so", make_library("libx.so"));
  install_object(fs_, "/app/bin/tool",
                 make_executable({"$ORIGIN/../lib/libx.so"}));
  Loader loader(fs_);
  const auto report = loader.load("/app/bin/tool");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/app/lib/libx.so");
  EXPECT_EQ(report.load_order[1].how, HowFound::AbsolutePath);
}

TEST_F(LoaderEdgeTest, RelativeSearchDirResolvesAgainstRoot) {
  install_object(fs_, "/opt/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"opt"}));
  Loader loader(fs_);
  EXPECT_TRUE(loader.load("/bin/app").success);
}

TEST_F(LoaderEdgeTest, AppCacheWorksUnderMusl) {
  fs_.mkdir_p("/e");
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so"}, {"/e", "/l"}));
  Loader writer(fs_);
  ASSERT_TRUE(shrinkwrap::make_loader_cache(fs_, writer, "/bin/app").ok());
  SearchConfig config;
  config.use_app_cache = true;
  Loader musl(fs_, config, Dialect::Musl);
  const auto report = musl.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].how, HowFound::AppCache);
}

TEST_F(LoaderEdgeTest, AppCacheDoesNotOverrideAbsoluteNeeded) {
  install_object(fs_, "/real/libx.so", make_library("libx.so"));
  install_object(fs_, "/fake/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"/real/libx.so"}));
  fs_.write_file("/bin/app.ldcache",
                 std::string("libx.so /fake/libx.so\n"));
  SearchConfig config;
  config.use_app_cache = true;
  Loader loader(fs_, config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/real/libx.so");
}

TEST_F(LoaderEdgeTest, NestedDlopenResolvesFromInnerCaller) {
  // plugin1 (dlopened by exe) dlopens plugin2, findable only through
  // plugin1's own runpath.
  install_object(fs_, "/deep/libplug2.so", make_library("libplug2.so"));
  elf::Object plug1 = make_library("libplug1.so", {}, {"/deep"});
  install_object(fs_, "/p/libplug1.so", plug1);
  install_object(fs_, "/bin/app", make_executable({}));
  Loader loader(fs_);
  auto report = loader.load("/bin/app");
  const auto first = loader.dlopen(report, "/bin/app", "/p/libplug1.so");
  ASSERT_NE(first.how, HowFound::NotFound);
  const auto second =
      loader.dlopen(report, "/p/libplug1.so", "libplug2.so");
  EXPECT_EQ(second.how, HowFound::Runpath);
  // And NOT findable from the executable itself.
  auto fresh = loader.load("/bin/app");
  const auto from_exe = loader.dlopen(fresh, "/bin/app", "libplug2.so");
  EXPECT_EQ(from_exe.how, HowFound::NotFound);
}

TEST_F(LoaderEdgeTest, DlopenDedupsAgainstExistingLoad) {
  install_object(fs_, "/l/libshared.so", make_library("libshared.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libshared.so"}, {"/l"}));
  Loader loader(fs_);
  auto report = loader.load("/bin/app");
  const std::size_t loaded_before = report.load_order.size();
  const auto result = loader.dlopen(report, "/bin/app", "libshared.so");
  EXPECT_EQ(result.how, HowFound::Cache);
  EXPECT_EQ(report.load_order.size(), loaded_before);
}

TEST_F(LoaderEdgeTest, LdCacheReflectsFilesystemAtFirstUse) {
  // The ld.so.cache is built lazily; libraries installed BEFORE the first
  // load are all visible, mirroring a fresh ldconfig run.
  install_object(fs_, "/usr/lib/liblate.so", make_library("liblate.so"));
  install_object(fs_, "/bin/app", make_executable({"liblate.so"}));
  Loader loader(fs_);
  EXPECT_TRUE(loader.load("/bin/app").success);
}

TEST_F(LoaderEdgeTest, StaleLdCacheMissesNewLibraryUntilInvalidate) {
  install_object(fs_, "/bin/app", make_executable({"libnew.so"}));
  Loader loader(fs_);
  EXPECT_FALSE(loader.load("/bin/app").success);  // builds the cache, empty
  install_object(fs_, "/usr/lib/libnew.so", make_library("libnew.so"));
  // Still missing: the cache is stale (ldconfig has not "run").
  EXPECT_FALSE(loader.load("/bin/app").success);
  loader.invalidate();
  EXPECT_TRUE(loader.load("/bin/app").success);
}

TEST_F(LoaderEdgeTest, HwcapsDirsSkippedWhenEmpty) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app", make_executable({"libx.so"}, {"/l"}));
  SearchConfig config;
  config.hwcaps = {"glibc-hwcaps/x86-64-v3", "glibc-hwcaps/x86-64-v2"};
  Loader loader(fs_, config);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order[1].path, "/l/libx.so");
  // Two hwcaps misses + the hit + exe open.
  EXPECT_EQ(report.stats.failed_probes, 2u);
}

TEST_F(LoaderEdgeTest, MixedArchPreloadIsSkipped) {
  elf::Object foreign = make_library("libtool.so");
  foreign.machine = elf::Machine::AArch64;
  install_object(fs_, "/usr/lib/libtool.so", foreign);
  install_object(fs_, "/bin/app", make_executable({}));
  Environment env;
  env.ld_preload = {"libtool.so"};
  Loader loader(fs_);
  const auto report = loader.load("/bin/app", env);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 1u);  // preload skipped, not fatal
}

TEST_F(LoaderEdgeTest, EmptyNeededListIsFine) {
  install_object(fs_, "/bin/min", make_executable({}));
  Loader loader(fs_);
  const auto report = loader.load("/bin/min");
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.stats.open_calls, 1u);
  EXPECT_EQ(report.requests.size(), 0u);
}

TEST_F(LoaderEdgeTest, DuplicateNeededEntriesLoadOnce) {
  install_object(fs_, "/l/libx.so", make_library("libx.so"));
  install_object(fs_, "/bin/app",
                 make_executable({"libx.so", "libx.so", "libx.so"}, {"/l"}));
  Loader loader(fs_);
  const auto report = loader.load("/bin/app");
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.load_order.size(), 2u);
  EXPECT_EQ(report.requests.size(), 3u);
}

// ------------------------------------------------------ candidate probes

// Every shape a (dir, name) candidate can take: present, missing, wrong
// architecture and directory candidates; a symlinked candidate; dirs that
// are missing, a regular file, a symlink, under a read-only and under a
// node-local mount, or loop on the walk; the root as dir.
std::shared_ptr<vfs::FileSystem> probe_world() {
  auto fs = std::make_shared<vfs::FileSystem>();
  install_object(*fs, "/lib/libgood.so", make_library("libgood.so"));
  elf::Object arm = make_library("libarm.so");
  arm.machine = elf::Machine::AArch64;
  install_object(*fs, "/lib/libarm.so", arm);
  fs->mkdir_p("/lib/sub");
  fs->symlink("libgood.so", "/lib/liblink.so");
  fs->symlink("/lib", "/linkdir");
  fs->symlink("/loop", "/loop");
  for (const char* point : {"/ro", "/nl"}) {
    auto image = std::make_shared<vfs::FileSystem>();
    install_object(*image, "/lib/libimg.so", make_library("libimg.so"));
    fs->mount_image(point, image);
  }
  fs->set_mount_latency("/nl", vfs::MountLatency::NodeLocal);
  return fs;
}

struct ProbeCase {
  const char* dir;
  const char* name;
  bool plain_miss;  // open_child must intern nothing
};

constexpr ProbeCase kProbeCases[] = {
    {"/lib", "libgood.so", false},        {"/lib", "libmissing.so", true},
    {"/lib", "libarm.so", false},         {"/lib", "sub", false},
    {"/lib", "liblink.so", false},        {"/nodir", "libgood.so", true},
    {"/lib/libgood.so", "libx.so", true}, {"/linkdir", "libgood.so", false},
    {"/linkdir", "libmissing.so", true},  {"/ro/lib", "libimg.so", false},
    {"/ro/lib", "libmissing.so", true},   {"/nl/lib", "libimg.so", false},
    {"/nl/lib", "libmissing.so", true},   {"/loop", "libgood.so", false},
    {"/lib", ".", false},                 {"/lib", "..", false},
    {"/lib", "", false},                  {"/", "lib", false},
    {"/", "libmissing.so", true},
};

void expect_same_stats(const vfs::SyscallStats& got,
                       const vfs::SyscallStats& want, const std::string& at) {
  EXPECT_EQ(got.stat_calls, want.stat_calls) << at;
  EXPECT_EQ(got.open_calls, want.open_calls) << at;
  EXPECT_EQ(got.read_calls, want.read_calls) << at;
  EXPECT_EQ(got.readlink_calls, want.readlink_calls) << at;
  EXPECT_EQ(got.failed_probes, want.failed_probes) << at;
  EXPECT_EQ(got.sim_time_s, want.sim_time_s) << at;  // exact, not near
}

std::vector<std::shared_ptr<vfs::LatencyModel>> probe_models() {
  vfs::NfsModel::Params negative;
  negative.negative_caching = true;
  return {std::make_shared<vfs::NfsModel>(),
          std::make_shared<vfs::NfsModel>(negative),
          std::make_shared<vfs::LocalDiskModel>()};
}

TEST(CandidateProbe, OpenChildChargesExactlyWhatTheFullWalkCharges) {
  for (const auto& model : probe_models()) {
    auto base = probe_world();
    base->set_latency_model(model);
    base->seal();
    vfs::FileSystem probe = base->fork_sealed();
    vfs::FileSystem walk = base->fork_sealed();
    vfs::OpTrace probe_trace;
    vfs::OpTrace walk_trace;
    probe.set_op_trace(&probe_trace);
    walk.set_op_trace(&walk_trace);
    // Twice over: the second pass meets warm attribute caches (and, with
    // negative caching, remembered misses).
    for (int pass = 0; pass < 2; ++pass) {
      for (const ProbeCase& c : kProbeCases) {
        const std::string at = model->name() + " pass " +
                               std::to_string(pass) + " " + c.dir + " + '" +
                               c.name + "'";
        const support::PathId dir = probe.intern(c.dir);
        const std::size_t interned = probe.paths().size();
        const vfs::FileData* got = probe.open_child(dir, c.name);
        if (c.plain_miss) EXPECT_EQ(probe.paths().size(), interned) << at;
        const vfs::FileData* want = walk.open(walk.paths().child(dir, c.name));
        ASSERT_EQ(got == nullptr, want == nullptr) << at;
        if (got != nullptr) EXPECT_EQ(got->bytes, want->bytes) << at;
        expect_same_stats(probe.stats(), walk.stats(), at);
      }
    }
    ASSERT_EQ(probe_trace.size(), walk_trace.size()) << model->name();
    EXPECT_EQ(probe_trace.distinct_paths(), walk_trace.distinct_paths());
    for (std::size_t i = 0; i < probe_trace.size(); ++i) {
      const vfs::OpRecord& a = probe_trace.ops()[i];
      const vfs::OpRecord& b = walk_trace.ops()[i];
      EXPECT_EQ(a.kind, b.kind) << model->name() << " op " << i;
      EXPECT_EQ(a.hit, b.hit) << model->name() << " op " << i;
      EXPECT_EQ(a.shared, b.shared) << model->name() << " op " << i;
      EXPECT_EQ(a.node_local, b.node_local) << model->name() << " op " << i;
      EXPECT_EQ(a.path, b.path) << model->name() << " op " << i;
    }
  }
}

// The probe-log line and the load's accounting, end to end: a load whose
// RPATH sweeps every case dir for every case name against the same
// sequence of plain open() walks on a twin fork.
TEST(CandidateProbe, ProbeLogAndLoadStatsMatchTheFullWalk) {
  const std::vector<std::string> dirs = {
      "/nodir", "/lib/libgood.so", "/loop",   "/linkdir",
      "/ro/lib", "/nl/lib",        "/lib",    "/"};
  const std::vector<std::string> names = {
      "libmissing.so", "libarm.so", "sub",       ".",          "..",
      "lib",           "libx.so",   "libimg.so", "libgood.so", "liblink.so"};
  for (const auto& model : probe_models()) {
    auto base = probe_world();
    install_object(*base, "/bin/app", make_executable(names, dirs));
    base->set_latency_model(model);
    base->seal();
    vfs::FileSystem loaded = base->fork_sealed();
    vfs::FileSystem walk = base->fork_sealed();

    SearchConfig config;
    config.record_probes = true;
    config.use_ld_cache = false;
    config.default_paths.clear();
    Loader loader(loaded, config);
    const LoadReport report = loader.load("/bin/app");

    // What ld.so would do with plain open()s: the exe's open and read,
    // then per name not already loaded under that soname the dirs in
    // order until an x86-64 object is found, read unless its real path is
    // already loaded.
    std::vector<std::string> log;
    std::set<std::string> real_loaded = {"/bin/app"};
    std::set<std::string> sonames;
    walk.open("/bin/app");
    walk.count_read("/bin/app");
    for (const auto& name : names) {
      if (sonames.contains(name)) continue;
      for (const auto& dir : dirs) {
        const support::PathId id = walk.paths().child(walk.intern(dir), name);
        const vfs::FileData* data = walk.open(id);
        const std::string& path = walk.paths().str(id);
        std::string verdict = "ENOENT";
        if (data != nullptr) {
          verdict = !elf::looks_like_self(data->bytes) ? "not an object, skipped"
                    : elf::parse(data->bytes).machine != elf::Machine::X86_64
                        ? "wrong architecture, skipped"
                        : "found";
        }
        log.push_back("trying " + path + " ... " + verdict);
        if (verdict != "found") continue;
        if (real_loaded.insert(*walk.realpath(path)).second) {
          walk.count_read(id);
          sonames.insert(elf::parse(data->bytes).dyn.soname);
        }
        break;
      }
    }
    EXPECT_EQ(report.probe_log, log) << model->name();
    expect_same_stats(report.stats, walk.stats(), model->name());
  }
}

// Memory regression: the candidate storm of a fresh fork interns only what
// it finds. Every laid-out (dir, name) candidate used to be interned into
// the fleet-wide table — about modules^2 entries per first load.
TEST(CandidateProbe, FreshForkPynamicLoadInternsOModulesPaths) {
  constexpr std::size_t kModules = 200;
  workload::PynamicConfig pynamic;
  pynamic.num_modules = kModules;
  pynamic.exe_extra_bytes = 0;
  core::Session base = core::WorldBuilder().pynamic(pynamic).build();
  base.seal();
  core::Session fork = base.fork_sealed();
  const std::size_t before = base.path_table().size();
  const auto report = fork.load();
  ASSERT_TRUE(report.success);
  // The sweep still makes every failed probe (~modules^2 / 2 of them).
  EXPECT_GT(report.stats.failed_probes, kModules * kModules / 4);
  EXPECT_LE(base.path_table().size() - before, 2 * kModules);
}

}  // namespace
}  // namespace depchaos::loader
