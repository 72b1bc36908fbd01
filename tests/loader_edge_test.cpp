// Loader corner cases beyond the main semantics suite: app-cache dialect
// interactions, $ORIGIN in needed entries, relative search dirs, nested
// dlopen, and cache staleness. At the bottom: the candidate probe
// (FileSystem::open_child) against the full open() walk it stands in for.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/loader/loader.hpp"
#include "depchaos/shrinkwrap/ldcache.hpp"
#include "depchaos/svc/wire.hpp"
#include "depchaos/vfs/vfs.hpp"
#include "depchaos/workload/pynamic.hpp"

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

TEST_F(LoaderEdgeTest, UnbracedOriginEndsWhereTheIdentifierDoes) {
  // glibc's is_dst: "$ORIGINAL" is not the $ORIGIN token followed by
  // "AL" — the entry stays literal (a relative dir, resolved against /).
  // The braced spelling does expand.
  install_object(fs_, "/appAL/x/libx.so", make_library("libx.so"));
  install_object(fs_, "/$ORIGINAL/x/libx.so", make_library("libx.so"));
  install_object(fs_, "/app/literal",
                 make_executable({"libx.so"}, {}, {"$ORIGINAL/x"}));
  install_object(fs_, "/app/braced",
                 make_executable({"libx.so"}, {}, {"${ORIGIN}AL/x"}));
  SearchConfig config;
  config.record_probes = true;
  Loader loader(fs_, config);
  const auto literal = loader.load("/app/literal");
  ASSERT_TRUE(literal.success);
  EXPECT_EQ(literal.load_order[1].path, "/$ORIGINAL/x/libx.so");
  EXPECT_EQ(literal.probe_log,
            std::vector<std::string>{"trying /$ORIGINAL/x/libx.so ... found"});
  const auto braced = loader.load("/app/braced");
  ASSERT_TRUE(braced.success);
  EXPECT_EQ(braced.load_order[1].path, "/appAL/x/libx.so");
  EXPECT_EQ(braced.probe_log,
            std::vector<std::string>{"trying /appAL/x/libx.so ... found"});
}

TEST_F(LoaderEdgeTest, LdCacheReportsTheSweepsSpelling) {
  // A trailing slash in a default dir must not leak into the path the
  // cached lookup reports or logs.
  install_object(fs_, "/site/lib/libfoo.so", make_library("libfoo.so"));
  install_object(fs_, "/bin/app", make_executable({"libfoo.so"}));
  std::vector<LoadReport> reports;
  for (const bool use_cache : {true, false}) {
    SearchConfig config;
    config.default_paths = {"/site/lib/"};
    config.use_ld_cache = use_cache;
    config.record_probes = true;
    Loader loader(fs_, config);
    reports.push_back(loader.load("/bin/app"));
    const LoadReport& report = reports.back();
    ASSERT_TRUE(report.success) << "use_ld_cache=" << use_cache;
    EXPECT_EQ(report.load_order[1].path, "/site/lib/libfoo.so")
        << "use_ld_cache=" << use_cache;
  }
  EXPECT_EQ(reports[0].probe_log, reports[1].probe_log);
  EXPECT_EQ(reports[0].probe_log,
            std::vector<std::string>{"trying /site/lib/libfoo.so ... found"});
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
        const vfs::FileData* got =
            probe.open_child(probe.open_dir(dir), c.name);
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

// --------------------------------------------- fast paths vs full open()s

// A glibc load written from full open() walks only: every candidate is
// open()ed by its spelled path, every accepted one read, every dedup key a
// string. It covers what the worlds below use — RPATH chains (an object
// with DT_RUNPATH drops its own), LD_LIBRARY_PATH, RUNPATH, hwcaps
// subdirs, default dirs without ld.so.cache, dedup by name, soname and
// real path, wrong-arch and non-SELF skips, the probe log and uncounted
// cache-hit classification — and builds the LoadReport the loader
// should.
class ReferenceLoad {
 public:
  ReferenceLoad(vfs::FileSystem& fs, const SearchConfig& config,
                const Environment& env)
      : fs_(fs), config_(config), env_(env) {}

  LoadReport run(const std::string& exe) {
    const vfs::SyscallStats before = fs_.stats();
    report_.success = true;
    const vfs::FileData* data = fs_.open(exe);
    fs_.count_read(exe);
    LoadedObject root;
    root.name = exe;
    root.path = exe;
    root.real_path = *fs_.realpath(exe);
    root.how = HowFound::Root;
    root.object = std::make_shared<const elf::Object>(elf::parse(data->bytes));
    machine_ = root.object->machine;
    add(std::move(root));
    for (std::size_t next = 0; next < queue_.size(); ++next) {
      request(queue_[next].first, queue_[next].second);
    }
    report_.stats.stat_calls = fs_.stats().stat_calls - before.stat_calls;
    report_.stats.open_calls = fs_.stats().open_calls - before.open_calls;
    report_.stats.read_calls = fs_.stats().read_calls - before.read_calls;
    report_.stats.readlink_calls =
        fs_.stats().readlink_calls - before.readlink_calls;
    report_.stats.failed_probes =
        fs_.stats().failed_probes - before.failed_probes;
    report_.stats.sim_time_s = fs_.stats().sim_time_s - before.sim_time_s;
    return std::move(report_);
  }

 private:
  struct Found {
    std::string path;
    HowFound how = HowFound::NotFound;
  };

  void add(LoadedObject object) {
    const std::size_t index = report_.load_order.size();
    by_name_.emplace(object.name, index);
    by_real_.emplace(object.real_path, index);
    if (!object.object->dyn.soname.empty()) {
      by_soname_.emplace(object.object->dyn.soname, index);
    }
    for (const auto& needed : object.object->dyn.needed) {
      queue_.emplace_back(needed, index);
    }
    report_.load_order.push_back(std::move(object));
  }

  std::optional<std::size_t> dedup(const std::string& name) const {
    if (const auto it = by_name_.find(name); it != by_name_.end()) {
      return it->second;
    }
    if (const auto it = by_soname_.find(name); it != by_soname_.end()) {
      return it->second;
    }
    return std::nullopt;
  }

  void request(const std::string& name, std::size_t requester) {
    const LoadedObject& from = report_.load_order[requester];
    LoadedObject req;
    req.name = name;
    req.requested_by = from.path;
    req.depth = from.depth + 1;
    req.parent_index = static_cast<std::int64_t>(requester);
    if (const auto hit = dedup(name)) {
      const LoadedObject& original = report_.load_order[*hit];
      req.path = original.path;
      req.real_path = original.real_path;
      req.how = HowFound::Cache;
      req.object = original.object;
      if (config_.classify_cache_hits) {
        fs_.set_counting(false);
        req.cache_search_how = search(name, requester, /*log=*/false).how;
        fs_.set_counting(true);
      }
      report_.requests.push_back(std::move(req));
      return;
    }
    Found found = search(name, requester, /*log=*/true);
    if (found.how == HowFound::NotFound) {
      report_.requests.push_back(req);
      report_.missing.push_back(std::move(req));
      report_.success = false;
      return;
    }
    req.path = found.path;
    req.real_path = *fs_.realpath(found.path);
    if (const auto it = by_real_.find(req.real_path); it != by_real_.end()) {
      req.how = HowFound::Cache;
      req.object = report_.load_order[it->second].object;
      by_name_.emplace(name, it->second);
      report_.requests.push_back(std::move(req));
      return;
    }
    req.how = found.how;
    req.object = std::make_shared<const elf::Object>(
        elf::parse(fs_.peek(found.path)->bytes));
    fs_.count_read(found.path);
    report_.requests.push_back(req);
    add(std::move(req));
  }

  // One candidate: a full open() walk of its spelled path.
  bool accept(const std::string& path, bool log) {
    const vfs::FileData* data = fs_.open(path);
    std::string verdict = "found";
    if (data == nullptr) {
      verdict = "ENOENT";
    } else if (!elf::looks_like_self(data->bytes)) {
      verdict = "not an object, skipped";
    } else if (elf::parse(data->bytes).machine != machine_) {
      verdict = "wrong architecture, skipped";
    }
    if (log && config_.record_probes) {
      report_.probe_log.push_back("trying " + path + " ... " + verdict);
    }
    return verdict == "found";
  }

  std::optional<std::string> sweep(const std::vector<std::string>& dirs,
                                   const std::string& name, bool log) {
    for (const auto& dir : dirs) {
      std::vector<std::string> candidates;
      for (const auto& hwcap : config_.hwcaps) {
        candidates.push_back(dir + "/" + hwcap + "/" + name);
      }
      candidates.push_back(dir + "/" + name);
      for (const auto& candidate : candidates) {
        const std::string path = vfs::normalize_path(candidate);
        if (accept(path, log)) return path;
      }
    }
    return std::nullopt;
  }

  Found search(const std::string& name, std::size_t requester, bool log) {
    const auto& order = report_.load_order;
    if (order[requester].object->dyn.runpath.empty()) {
      for (auto index = static_cast<std::int64_t>(requester); index >= 0;
           index = order[static_cast<std::size_t>(index)].parent_index) {
        const elf::Object& link = *order[static_cast<std::size_t>(index)].object;
        if (!link.dyn.runpath.empty()) continue;
        if (auto path = sweep(link.dyn.rpath, name, log)) {
          return {*path, static_cast<std::size_t>(index) == requester
                             ? HowFound::Rpath
                             : HowFound::RpathAncestor};
        }
      }
    }
    if (auto path = sweep(env_.ld_library_path, name, log)) {
      return {*path, HowFound::LdLibraryPath};
    }
    if (auto path = sweep(order[requester].object->dyn.runpath, name, log)) {
      return {*path, HowFound::Runpath};
    }
    if (auto path = sweep(config_.default_paths, name, log)) {
      return {*path, HowFound::DefaultPath};
    }
    return {};
  }

  vfs::FileSystem& fs_;
  const SearchConfig& config_;
  const Environment& env_;
  elf::Machine machine_ = elf::Machine::X86_64;
  LoadReport report_;
  std::vector<std::pair<std::string, std::size_t>> queue_;
  std::map<std::string, std::size_t> by_name_;
  std::map<std::string, std::size_t> by_soname_;
  std::map<std::string, std::size_t> by_real_;
};

struct EquivalenceWorld {
  std::shared_ptr<vfs::FileSystem> fs;
  std::string exe;
  Environment env;
  std::string node_local_mount;  // an image mount the variant may pre-stage
};

// Every shape a search dir can take: a symlinked dir, a dir that is a
// file, a missing dir, a dir with a hwcaps subdir, wrong-arch and non-SELF
// candidates, a mountpoint and a dir under it, an ELOOP dir; plus each
// search phase, soname, name and real-path dedup, and a miss.
EquivalenceWorld mixed_world() {
  EquivalenceWorld w;
  w.fs = std::make_shared<vfs::FileSystem>();
  vfs::FileSystem& fs = *w.fs;
  install_object(fs, "/real/lib/libreal.so",
                 make_library("libreal.so", {"libdep.so", "libhw.so"}, {},
                              {"/deps"}));
  fs.symlink("libreal.so", "/real/lib/libalias.so");
  install_object(fs, "/real/lib/libdep2.so", make_library("libdep2.so"));
  fs.symlink("/real/lib", "/links/lib");
  install_object(fs, "/deps/libdep.so", make_library("libdep.so"));
  install_object(fs, "/hw/lib/glibc-hwcaps/x86-64-v3/libhw.so",
                 make_library("libhw.so", {"libdep2.so"}));
  install_object(fs, "/hw/lib/libhw.so", make_library("libhw.so"));
  elf::Object arm = make_library("libwrong.so");
  arm.machine = elf::Machine::AArch64;
  install_object(fs, "/arm/lib/libwrong.so", arm);
  fs.write_file("/junk/lib/libwrong.so", std::string("#!/bin/sh\n"));
  install_object(fs, "/sys/lib/libwrong.so", make_library("libwrong.so"));
  install_object(fs, "/env/lib/libenv.so", make_library("libenv.so"));
  install_object(fs, "/rp/librp.so", make_library("librp.so"));
  fs.symlink("/loop", "/loop");
  auto image = std::make_shared<vfs::FileSystem>();
  install_object(*image, "/lib/libimg.so",
                 make_library("libimg.so", {"librp.so", "libhw.so"}, {"/rp"}));
  install_object(*image, "/libtop.so", make_library("libtop.so"));
  fs.mount_image("/img", image);
  w.node_local_mount = "/img";
  const std::vector<std::string> rpath = {
      "/nowhere", "/links/lib/libreal.so", "/loop/lib", "/links/lib",
      "/hw/lib",  "/arm/lib",              "/junk/lib", "/img",
      "/img/lib"};
  install_object(fs, "/app/bin/exe",
                 make_executable({"libreal.so", "libalias.so", "libhw.so",
                                  "libwrong.so", "libimg.so", "libtop.so",
                                  "libenv.so", "libmissing.so"},
                                 {}, rpath));
  w.exe = "/app/bin/exe";
  w.env.ld_library_path = {"/nowhere", "/env/lib"};
  return w;
}

EquivalenceWorld pynamic_world() {
  EquivalenceWorld w;
  w.fs = std::make_shared<vfs::FileSystem>();
  workload::PynamicConfig pynamic;
  pynamic.num_modules = 200;
  pynamic.exe_extra_bytes = 0;
  w.exe = workload::generate_pynamic(*w.fs, pynamic).exe_path;
  auto image = std::make_shared<vfs::FileSystem>();
  install_object(*image, "/lib/libimg.so", make_library("libimg.so"));
  w.fs->mount_image("/staged", image);
  w.node_local_mount = "/staged";
  return w;
}

struct Variant {
  std::string name;
  std::shared_ptr<vfs::LatencyModel> model;
  bool trace = false;
  bool breakdown = false;
  bool node_local = false;
  bool record_probes = false;
  bool classify_cache_hits = false;
};

std::vector<Variant> variants() {
  vfs::NfsModel::Params negative;
  negative.negative_caching = true;
  const auto nfs = [] { return std::make_shared<vfs::NfsModel>(); };
  std::vector<Variant> out(8);
  out[0] = {"nfs", nfs()};
  out[1] = {"nfs+negative_caching", std::make_shared<vfs::NfsModel>(negative)};
  out[2] = {"local-disk", std::make_shared<vfs::LocalDiskModel>()};
  out[3] = {"op-trace", nfs()};
  out[3].trace = true;
  out[4] = {"meta-breakdown", nfs()};
  out[4].breakdown = true;
  out[5] = {"node-local-mount", nfs()};
  out[5].node_local = true;
  out[6] = {"record_probes", nfs()};
  out[6].record_probes = true;
  out[7] = {"classify_cache_hits", nfs()};
  out[7].classify_cache_hits = true;
  return out;
}

void expect_loads_match_full_walks(EquivalenceWorld w, const Variant& v) {
  w.fs->set_latency_model(v.model);
  if (v.node_local) {
    w.fs->set_mount_latency(w.node_local_mount, vfs::MountLatency::NodeLocal);
  }
  w.fs->seal();
  vfs::FileSystem loaded = w.fs->fork_sealed();
  vfs::FileSystem walk = w.fs->fork_sealed();
  vfs::OpTrace loaded_trace;
  vfs::OpTrace walk_trace;
  vfs::FileSystem::MetaBreakdown loaded_split;
  vfs::FileSystem::MetaBreakdown walk_split;
  if (v.trace) {
    loaded.set_op_trace(&loaded_trace);
    walk.set_op_trace(&walk_trace);
  }
  if (v.breakdown) {
    loaded.set_meta_breakdown(&loaded_split);
    walk.set_meta_breakdown(&walk_split);
  }
  SearchConfig config;
  config.hwcaps = {"glibc-hwcaps/x86-64-v3"};
  config.use_ld_cache = false;
  config.default_paths = {"/nowhere", "/sys/lib"};
  config.record_probes = v.record_probes;
  config.classify_cache_hits = v.classify_cache_hits;
  Loader loader(loaded, config);
  // Twice over: the second load meets the parsed-object cache and warm
  // attribute caches (and, with negative caching, remembered misses).
  for (int pass = 0; pass < 2; ++pass) {
    const std::string at = v.name + " pass " + std::to_string(pass);
    const LoadReport got = loader.load(w.exe, w.env);
    const LoadReport want = ReferenceLoad(walk, config, w.env).run(w.exe);
    EXPECT_EQ(svc::encode_load_report(got), svc::encode_load_report(want))
        << at;
    expect_same_stats(got.stats, want.stats, at);
    EXPECT_EQ(std::memcmp(&got.stats.sim_time_s, &want.stats.sim_time_s,
                          sizeof(double)),
              0)
        << at;
    expect_same_stats(loaded.stats(), walk.stats(), at);
    if (v.record_probes) {
      EXPECT_FALSE(got.probe_log.empty()) << at;
    }
  }
  EXPECT_EQ(loaded_split.shared_ops, walk_split.shared_ops) << v.name;
  EXPECT_EQ(loaded_split.private_ops, walk_split.private_ops) << v.name;
  if (v.breakdown) {
    EXPECT_GT(loaded_split.shared_ops, 0u) << v.name;
  }
  ASSERT_EQ(loaded_trace.size(), walk_trace.size()) << v.name;
  if (v.trace) {
    EXPECT_GT(loaded_trace.size(), 0u) << v.name;
  }
  EXPECT_EQ(loaded_trace.distinct_paths(), walk_trace.distinct_paths());
  for (std::size_t i = 0; i < loaded_trace.size(); ++i) {
    const vfs::OpRecord& a = loaded_trace.ops()[i];
    const vfs::OpRecord& b = walk_trace.ops()[i];
    EXPECT_EQ(a.kind, b.kind) << v.name << " op " << i;
    EXPECT_EQ(a.hit, b.hit) << v.name << " op " << i;
    EXPECT_EQ(a.shared, b.shared) << v.name << " op " << i;
    EXPECT_EQ(a.node_local, b.node_local) << v.name << " op " << i;
    EXPECT_EQ(a.path, b.path) << v.name << " op " << i;
  }
}

TEST(CandidateProbe, MixedWorldLoadMatchesFullWalksUnderEveryConsumer) {
  {
    // The world exercises what it claims to.
    EquivalenceWorld w = mixed_world();
    SearchConfig config;
    config.hwcaps = {"glibc-hwcaps/x86-64-v3"};
    config.use_ld_cache = false;
    config.default_paths = {"/nowhere", "/sys/lib"};
    config.classify_cache_hits = true;
    const LoadReport report = Loader(*w.fs, config).load(w.exe, w.env);
    std::set<HowFound> hows;
    for (const auto& r : report.requests) hows.insert(r.how);
    for (const HowFound how :
         {HowFound::Rpath, HowFound::RpathAncestor, HowFound::LdLibraryPath,
          HowFound::Runpath, HowFound::DefaultPath, HowFound::Cache,
          HowFound::NotFound}) {
      EXPECT_TRUE(hows.contains(how)) << how_found_name(how);
    }
    const LoadedObject* hw = report.find_loaded("libhw.so");
    ASSERT_NE(hw, nullptr);
    EXPECT_EQ(hw->path, "/hw/lib/glibc-hwcaps/x86-64-v3/libhw.so");
    const LoadedObject* real = report.find_loaded("libreal.so");
    ASSERT_NE(real, nullptr);
    EXPECT_EQ(real->path, "/links/lib/libreal.so");
    EXPECT_EQ(real->real_path, "/real/lib/libreal.so");
  }
  for (const Variant& v : variants()) {
    expect_loads_match_full_walks(mixed_world(), v);
  }
}

TEST(CandidateProbe, PynamicLoadMatchesFullWalksUnderEveryConsumer) {
  for (const Variant& v : variants()) {
    expect_loads_match_full_walks(pynamic_world(), v);
  }
}

// The per-load directory memo dies with the load: a directory (or a
// library in a known directory) created between two loads of one Loader
// is found by the second.
TEST(CandidateProbe, DirCreatedBetweenLoadsIsFoundByTheNextLoad) {
  vfs::FileSystem fs;
  install_object(fs, "/l/libx.so", make_library("libx.so"));
  install_object(fs, "/l/liby.so", make_library("liby.so"));
  fs.mkdir_p("/known");
  install_object(fs, "/bin/app",
                 make_executable({"libx.so", "liby.so"}, {},
                                 {"/late", "/known", "/l"}));
  Loader loader(fs);
  const LoadReport first = loader.load("/bin/app");
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.load_order[1].path, "/l/libx.so");
  EXPECT_EQ(first.load_order[2].path, "/l/liby.so");
  install_object(fs, "/late/libx.so", make_library("libx.so"));
  install_object(fs, "/known/liby.so", make_library("liby.so"));
  const LoadReport second = loader.load("/bin/app");
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.load_order[1].path, "/late/libx.so");
  EXPECT_EQ(second.load_order[2].path, "/known/liby.so");
}

}  // namespace
}  // namespace depchaos::loader
