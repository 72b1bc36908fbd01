// Dynamic loader simulator.
//
// Reproduces the search and deduplication semantics the paper analyzes
// (§III). The dialect-specific choices (search-phase order, dedup keys,
// RPATH/RUNPATH melding, hwcaps, ld.so.cache use) are factored into the
// pluggable loader::SearchPolicy interface (search_policy.hpp); the two
// built-in policies are:
//
//  Glibc:
//   * For a needed name without '/', search in order: DT_RPATH of the
//     requesting object and then of its ancestors up to the executable
//     (an object's RPATH is ignored entirely if that object has a
//     DT_RUNPATH — Table I "propagates"), LD_LIBRARY_PATH, DT_RUNPATH of
//     the requesting object only, the ld.so.cache (built from ld.so.conf
//     directories), and finally the default paths.
//   * Loaded objects are deduplicated by requested name, by DT_SONAME, and
//     by canonical path (dev/inode) — the behaviour Shrinkwrap exploits
//     (Fig 5): an object loaded by absolute path satisfies later bare-soname
//     requests from its cached DT_SONAME.
//   * Candidates with a mismatched machine are silently skipped (§IV).
//   * glibc-hwcaps subdirectories are probed before each plain directory.
//  Musl:
//   * RPATH and RUNPATH are melded: both propagate to dependencies but are
//     searched *after* LD_LIBRARY_PATH (§IV).
//   * Deduplication is by exact needed string and by inode only — never by
//     soname, which is what breaks Shrinkwrap'd binaries on musl (§IV).
//
// Loading is breadth-first from the executable's DT_NEEDED list, matching
// ld.so; each object is charged the open(2) probes its search emits against
// the VFS, which is where Table II's syscall counts come from.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "depchaos/elf/object.hpp"
#include "depchaos/loader/search_policy.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::loader {

/// Process environment relevant to the loader.
struct Environment {
  std::vector<std::string> ld_library_path;
  std::vector<std::string> ld_preload;

  static Environment with_library_path(std::vector<std::string> dirs) {
    Environment env;
    env.ld_library_path = std::move(dirs);
    return env;
  }
};

/// System-level loader configuration (a distribution's ld.so.conf).
struct SearchConfig {
  /// Directories listed in ld.so.conf(.d), indexed into ld.so.cache.
  std::vector<std::string> ld_so_conf;
  /// Built-in trusted directories.
  std::vector<std::string> default_paths = {"/lib64", "/usr/lib64", "/lib",
                                            "/usr/lib"};
  /// glibc-hwcaps style subdirectories probed inside each search dir,
  /// best first (e.g. {"glibc-hwcaps/x86-64-v3", "glibc-hwcaps/x86-64-v2"}).
  std::vector<std::string> hwcaps;
  /// Model ld.so.cache: lookups in ld_so_conf/default dirs cost no probes.
  /// When false every directory is probed with open() like any other.
  bool use_ld_cache = true;
  /// For dedup (cache) hits, additionally classify how the requester's OWN
  /// search would have fared — uncounted — so libtree can render Listing 1:
  /// a library satisfied only because an earlier subtree loaded it shows up
  /// as "not found" in a pure search analysis.
  bool classify_cache_hits = false;
  /// Guix-style per-application loader cache (Courtès, "Taming the stat
  /// storm with a loader cache", referenced in §V-A): when enabled and
  /// "<exe>.ldcache" exists, its name->path map is consulted BEFORE any
  /// directory search. Reading the cache costs one open; each hit costs one
  /// direct open of the target — comparable to Shrinkwrap's savings without
  /// rewriting the binary, but tied to a side file the environment must
  /// preserve.
  bool use_app_cache = false;
  std::string app_cache_suffix = ".ldcache";
  /// LD_DEBUG=libs-style probe trace: record every candidate path the
  /// search touches, with its outcome, into LoadReport::probe_log.
  bool record_probes = false;
};

/// How a dependency was ultimately located (libtree's annotations).
enum class HowFound : std::uint8_t {
  Root,           // the executable itself
  AbsolutePath,   // DT_NEEDED contained '/'
  Cache,          // already loaded (dedup hit)
  Preload,        // LD_PRELOAD
  AppCache,       // per-application loader cache file (§V-A reference)
  Rpath,          // requester's DT_RPATH
  RpathAncestor,  // an ancestor's DT_RPATH (propagation, Table I)
  LdLibraryPath,  // LD_LIBRARY_PATH
  Runpath,        // requester's DT_RUNPATH
  LdSoConf,       // ld.so.cache hit from ld.so.conf dirs
  DefaultPath,    // trusted default dirs
  NotFound,
};

std::string_view how_found_name(HowFound how);

struct LoadedObject {
  std::string name;          // requested needed string
  std::string path;          // where it was found ("" when NotFound)
  std::string real_path;     // canonical path (symlinks resolved)
  std::string requested_by;  // path of the requesting object ("" for root)
  HowFound how = HowFound::NotFound;
  int depth = 0;  // BFS depth; 0 = executable
  /// Index into LoadReport::load_order of the object whose needed list
  /// caused this load (-1 for the executable). Drives RPATH ancestor
  /// propagation.
  std::int64_t parent_index = -1;
  /// Only meaningful when how == Cache and SearchConfig::classify_cache_hits
  /// is set: how the requester's own search would have resolved this name
  /// (NotFound means "works only because something else loaded it first").
  /// Cache = unclassified (the option was off).
  HowFound cache_search_how = HowFound::Cache;
  std::shared_ptr<const elf::Object> object;  // null when NotFound
};

struct LoadReport {
  bool success = false;
  /// Objects in load (BFS) order; index 0 is the executable. Dedup hits are
  /// NOT repeated here; `requests` below records every edge.
  std::vector<LoadedObject> load_order;
  /// Every needed-edge request, including cache hits and misses, in the
  /// order the loader processed them (libtree renders this).
  std::vector<LoadedObject> requests;
  /// Unresolved needed entries.
  std::vector<LoadedObject> missing;
  /// Syscall traffic attributable to this load (delta on the VFS counters).
  vfs::SyscallStats stats;
  /// When SearchConfig::record_probes is set: one line per candidate probe,
  /// `LD_DEBUG=libs` style ("trying /path ... ENOENT").
  std::vector<std::string> probe_log;

  const LoadedObject* find_loaded(std::string_view path_or_soname) const;
};

class Loader {
 public:
  /// Back-compat factory-enum constructor: the dialect names one of the
  /// built-in SearchPolicy singletons.
  explicit Loader(vfs::FileSystem& fs, SearchConfig config = {},
                  Dialect dialect = Dialect::Glibc);

  /// Pluggable-policy constructor. `policy` must be non-null.
  Loader(vfs::FileSystem& fs, SearchConfig config,
         std::shared_ptr<const SearchPolicy> policy);

  /// Simulate process startup: load `exe_path` and its full closure.
  LoadReport load(const std::string& exe_path, const Environment& env = {});

  /// Simulate dlopen(name) issued from code in `caller_path`, continuing an
  /// existing load. glibc semantics: the caller's RPATH chain and RUNPATH
  /// apply, the executable's RUNPATH does not (§III-A, the Qt plugin trap).
  LoadedObject dlopen(LoadReport& report, const std::string& caller_path,
                      const std::string& name, const Environment& env = {});

  const SearchConfig& config() const { return config_; }
  /// The active dialect policy (search order, dedup keys, melding rules).
  const SearchPolicy& policy() const { return *policy_; }
  /// Back-compat: the factory enum this loader was built from (custom
  /// policies map onto the dialect whose dedup semantics they follow).
  Dialect dialect() const { return dialect_; }

 private:
  /// A candidate the search reached. A found library is carried by its
  /// ids from the probe that accepted it to registration: nothing
  /// re-interns, re-walks or re-parses it.
  struct Resolution {
    std::string path;
    HowFound how = HowFound::NotFound;
    /// Interned id of `path`; kNone for a path past the interner's byte
    /// budget (it is then probed by string).
    support::PathId id = support::PathTable::kNone;
    /// Canonical (symlink-free) id, set when a probe opens the candidate:
    /// the inode-proxy dedup key and the parsed-object cache key. kNone
    /// past the byte budget.
    support::PathId canon = support::PathTable::kNone;
    /// The parsed object an accepted probe read (from the cache).
    std::shared_ptr<const elf::Object> object;
  };

  /// One search directory of a load: interned, or past the byte budget
  /// carried by its normalized spelling (candidates are then probed by
  /// string). glibc-hwcaps subdirectories are entries of their own, ahead
  /// of their plain directory and sharing its `source`.
  struct DirRef {
    support::PathId id = support::PathTable::kNone;
    std::string text;
    /// Index of the search-path entry this directory comes from.
    std::size_t source = 0;
    /// FileSystem::open_dir of `id`, taken at the first probe. Valid for
    /// this load only: the list holding it is per-load state.
    std::optional<vfs::FileSystem::Dir> handle;
  };
  using DirList = std::vector<DirRef>;

  /// Outcome of a directory sweep: the `source` of the directory that
  /// accepted the candidate, and the candidate itself.
  static constexpr std::size_t kNoDir = static_cast<std::size_t>(-1);
  struct DirProbe {
    std::size_t dir = kNoDir;
    Resolution res;
    bool found() const { return dir != kNoDir; }
  };

  // Pending BFS work item: `needed` entry requested by load_order[req_index].
  struct WorkItem {
    std::string name;
    std::size_t requester_index;
  };

  // Per-load mutable state.
  struct Session {
    LoadReport report;
    // Dedup indices into report.load_order. Names and sonames are request
    // strings; the inode-proxy map is keyed by canonical PathId, with a
    // string-keyed sibling for real paths that could not be interned past
    // the byte budget (a path interns to the same id — or consistently
    // fails — every time, so the two maps never alias).
    std::unordered_map<std::string, std::size_t> by_name;      // request str
    std::unordered_map<std::string, std::size_t> by_soname;    // DT_SONAME
    std::unordered_map<support::PathId, std::size_t> by_realpath;
    std::unordered_map<std::string, std::size_t> by_realpath_str;
    // Parsed per-application loader cache ("" when absent/disabled).
    std::unordered_map<std::string, std::string> app_cache;
    // The load's search directories, built on first use: each
    // load_order entry's RPATH segment and RUNPATH (node-based maps, so a
    // list stays put while later ones are added), LD_LIBRARY_PATH, and
    // the system dirs swept without ld.so.cache.
    std::unordered_map<std::size_t, DirList> rpath_segments;
    std::unordered_map<std::size_t, DirList> runpaths;
    std::optional<DirList> library_path;
    std::optional<DirList> system_dirs;
    const Environment* env = nullptr;
  };

  /// The parsed object behind `data`, at most one parse per cache key
  /// (canonical id, else the id; kNone parses uncached). Null when `data`
  /// is not a SELF image; throws ElfError when it is a malformed one.
  std::shared_ptr<const elf::Object> parsed_object(
      const Resolution& res, const vfs::FileData& data);
  /// Charge the read of a found object, by id or (past the byte budget)
  /// by string.
  void count_read(support::PathId id, const std::string& path);
  /// The canonical spelling of a found path for LoadedObject::real_path.
  /// Past the byte budget (no canonical id) it walks the string and sets
  /// `res.canon` to the id the spelling interns to, if any.
  std::string real_path_of(Resolution& res) const;
  std::optional<std::size_t> dedup_lookup(Session& session,
                                          const std::string& name) const;
  /// The inode-proxy dedup invariant in one place: a canonical id keys
  /// by_realpath, a real path past the byte budget by_realpath_str.
  void note_realpath(Session& session, support::PathId canon,
                     const std::string& real_path, std::size_t index) const;
  std::optional<std::size_t> find_realpath(const Session& session,
                                           support::PathId canon,
                                           const std::string& real_path) const;
  Resolution search(Session& session, const std::string& name,
                    std::size_t requester_index);
  /// Intern a search directory: absolute dirs directly, relative dirs (a
  /// historic security hole) resolved against / — functional but
  /// unremarkable, as before. Past the interner byte budget the id is
  /// kNone and `text` keeps the normalized spelling.
  DirRef dir_ref(std::string_view dir) const;
  /// Append `entries` to `dirs`, each the next source, $ORIGIN-expanded
  /// against `origin_of` when given, and each preceded by its hwcaps
  /// subdirs when the policy probes them.
  void add_search_dirs(DirList& dirs, const std::vector<std::string>& entries,
                       const std::string* origin_of) const;
  /// Sweep `dirs` for `name`, probing each candidate as it is reached and
  /// stopping at the first accepted one. Each attempt is one counted
  /// open(2).
  DirProbe probe_dirs(DirList& dirs, const std::string& name,
                      elf::Machine machine);
  /// Probe `name` inside `dir` through FileSystem::open_child, so a miss
  /// interns nothing and builds no string unless the probe log wants it.
  bool probe_candidate(DirRef& dir, const std::string& name,
                       elf::Machine machine, Resolution& res);
  /// Shared probe verdict: ELF magic + architecture checks with LD_DEBUG
  /// style logging of `res.path`. `data` is the opened candidate (null =
  /// ENOENT); an opened one gets `res.canon` and `res.object`.
  bool classify_probe(Resolution& res, const vfs::FileData* data,
                      elf::Machine machine);
  /// Single ELF-validity probe of `res` (by id, or by string when the id
  /// is kNone). `res.path` is the probe-log spelling: paths carried
  /// verbatim from caches/preloads keep their original bytes.
  bool probe_file(Resolution& res, elf::Machine machine);
  void ensure_ld_cache();
  std::size_t register_object(Session& session, LoadedObject loaded,
                              support::PathId canon);
  void process_request(Session& session, const WorkItem& item,
                       std::deque<WorkItem>& queue);
  void enqueue_needed_deque(Session& session, std::size_t index,
                            std::deque<WorkItem>& queue);
  Resolution search_phase(SearchPhase phase, Session& session,
                          const std::string& name, std::size_t requester_index,
                          elf::Machine machine);
  /// The dirs load_order[index] contributes to every RPATH chain through
  /// it — its DT_RPATH (unless it has a DT_RUNPATH), plus its DT_RUNPATH
  /// when melding — $ORIGIN-expanded and interned on first use, then
  /// memoized for the rest of the load. A requester's effective chain is
  /// its own segment followed by each ancestor's.
  DirList& rpath_segment(Session& session, std::size_t index) const;

  /// Expand $ORIGIN/${ORIGIN} in one pass (glibc's is_dst: an unbraced
  /// $ORIGIN is a token only when no identifier character follows).
  /// Returns `entry` itself when there is nothing to expand (no
  /// allocation — the common case), else a view of `storage` holding the
  /// expansion.
  static std::string_view expand_origin(std::string_view entry,
                                        std::string_view object_path,
                                        std::string& storage);

  vfs::FileSystem& fs_;
  // The world's interner (shared across the whole fork family); candidate
  // construction, closure keys, and the parsed-object cache all speak ids.
  std::shared_ptr<support::PathTable> paths_;
  SearchConfig config_;
  std::shared_ptr<const SearchPolicy> policy_;
  Dialect dialect_;
  // Parsed-object cache keyed by canonical PathId, read by every probe
  // that opens a candidate (never invalidated: loads are read-only with
  // respect to binaries; Patcher edits go through the VFS, so tests that
  // patch then reload construct a fresh Loader or call invalidate()).
  std::unordered_map<support::PathId, std::shared_ptr<const elf::Object>>
      cache_;
  // ld.so.cache: name -> (path, from ld_so_conf or default). A lean entry,
  // not a Resolution: every fork copies the map (adopt_caches).
  struct CachedLib {
    std::string path;
    support::PathId id = support::PathTable::kNone;
    HowFound how = HowFound::NotFound;
  };
  std::unordered_map<std::string, CachedLib> ld_cache_;
  bool ld_cache_built_ = false;
  // Active probe log during a load() (null when record_probes is off).
  std::vector<std::string>* probe_log_ = nullptr;

 public:
  /// Drop parsed-object and ld.so caches (after patching binaries).
  void invalidate();

  /// Seed this loader's parsed-object and ld.so caches from another loader
  /// whose filesystem is identical to ours — the fork boundary in
  /// core::Session::fork(). Safe because parsed objects are immutable
  /// shared_ptr<const> values and a freshly forked world is byte-identical
  /// to its parent; after either side patches binaries, the usual
  /// invalidate() convention applies to that side's loader only.
  void adopt_caches(const Loader& other);
};

}  // namespace depchaos::loader
