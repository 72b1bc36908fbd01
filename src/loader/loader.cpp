#include "depchaos/loader/loader.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "depchaos/support/strings.hpp"

namespace depchaos::loader {

namespace {

vfs::SyscallStats stats_delta(const vfs::SyscallStats& before,
                              const vfs::SyscallStats& after) {
  vfs::SyscallStats delta;
  delta.stat_calls = after.stat_calls - before.stat_calls;
  delta.open_calls = after.open_calls - before.open_calls;
  delta.read_calls = after.read_calls - before.read_calls;
  delta.readlink_calls = after.readlink_calls - before.readlink_calls;
  delta.failed_probes = after.failed_probes - before.failed_probes;
  delta.sim_time_s = after.sim_time_s - before.sim_time_s;
  return delta;
}

}  // namespace

std::string_view how_found_name(HowFound how) {
  switch (how) {
    case HowFound::Root:
      return "root";
    case HowFound::AbsolutePath:
      return "absolute path";
    case HowFound::Cache:
      return "already loaded";
    case HowFound::Preload:
      return "LD_PRELOAD";
    case HowFound::AppCache:
      return "app loader cache";
    case HowFound::Rpath:
      return "rpath";
    case HowFound::RpathAncestor:
      return "rpath (inherited)";
    case HowFound::LdLibraryPath:
      return "LD_LIBRARY_PATH";
    case HowFound::Runpath:
      return "runpath";
    case HowFound::LdSoConf:
      return "ld.so.conf";
    case HowFound::DefaultPath:
      return "default path";
    case HowFound::NotFound:
      return "not found";
  }
  return "?";
}

const LoadedObject* LoadReport::find_loaded(
    std::string_view path_or_soname) const {
  for (const auto& obj : load_order) {
    if (obj.path == path_or_soname || obj.name == path_or_soname ||
        obj.real_path == path_or_soname) {
      return &obj;
    }
    if (obj.object && obj.object->dyn.soname == path_or_soname) return &obj;
  }
  return nullptr;
}

Loader::Loader(vfs::FileSystem& fs, SearchConfig config, Dialect dialect)
    : Loader(fs, std::move(config), SearchPolicy::shared(dialect)) {}

Loader::Loader(vfs::FileSystem& fs, SearchConfig config,
               std::shared_ptr<const SearchPolicy> policy)
    : fs_(fs),
      paths_(fs.path_table()),
      config_(std::move(config)),
      policy_(std::move(policy)),
      dialect_(SearchPolicy::dialect_of(*policy_)) {}

void Loader::invalidate() {
  cache_.clear();
  ld_cache_.clear();
  ld_cache_built_ = false;
}

void Loader::adopt_caches(const Loader& other) {
  cache_ = other.cache_;
  ld_cache_ = other.ld_cache_;
  ld_cache_built_ = other.ld_cache_built_;
}

std::string_view Loader::expand_origin(std::string_view entry,
                                       std::string_view object_path,
                                       std::string& storage) {
  // Single pass over the entry: both spellings are recognized at each '$'
  // (they cannot overlap), the origin is computed only when a token
  // actually matches, and an entry without one is returned as-is — no
  // allocation on the overwhelmingly common no-DST path. Like glibc's
  // is_dst, "$ORIGINAL" is no token: an unbraced name ends where the
  // identifier does.
  const auto ident = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  std::string origin;
  bool expanding = false;
  std::size_t copied = 0;  // start of the not-yet-copied tail
  for (std::size_t pos = entry.find('$'); pos != std::string_view::npos;
       pos = entry.find('$', pos + 1)) {
    const std::string_view rest = entry.substr(pos);
    std::size_t token = 0;
    if (rest.starts_with("${ORIGIN}")) {
      token = 9;
    } else if (rest.starts_with("$ORIGIN") &&
               (rest.size() == 7 || !ident(rest[7]))) {
      token = 7;
    } else {
      continue;
    }
    if (!expanding) {
      expanding = true;
      storage.clear();
      origin = vfs::dirname(object_path);
    }
    storage += entry.substr(copied, pos - copied);
    storage += origin;
    copied = pos + token;
  }
  if (!expanding) return entry;
  storage += entry.substr(copied);
  return storage;
}

std::shared_ptr<const elf::Object> Loader::parsed_object(
    const Resolution& res, const vfs::FileData& data) {
  const support::PathId key =
      res.canon != support::PathTable::kNone ? res.canon : res.id;
  if (key != support::PathTable::kNone) {
    if (const auto it = cache_.find(key); it != cache_.end()) {
      return it->second;
    }
  }
  if (!elf::looks_like_self(data.bytes)) return nullptr;
  auto object = std::make_shared<const elf::Object>(elf::parse(data.bytes));
  // Interner byte budget exhausted: parsed uncached (same charges either
  // way — the read counted by count_read is the only counted op).
  if (key != support::PathTable::kNone) cache_.emplace(key, object);
  return object;
}

void Loader::count_read(support::PathId id, const std::string& path) {
  if (id != support::PathTable::kNone) {
    fs_.count_read(id);
  } else {
    fs_.count_read(path);
  }
}

std::string Loader::real_path_of(Resolution& res) const {
  if (res.canon != support::PathTable::kNone) return paths_->str(res.canon);
  // Past the byte budget: the string walk, keyed by the id its spelling
  // interns to when it still fits.
  std::string real = fs_.realpath(res.path).value_or(res.path);
  res.canon = fs_.intern(real);
  return real;
}

bool Loader::classify_probe(Resolution& res, const vfs::FileData* data,
                            elf::Machine machine) {
  std::string_view verdict = "found";
  if (data == nullptr) {
    verdict = "ENOENT";
  } else {
    res.canon = res.id != support::PathTable::kNone
                    ? fs_.resolve_canonical(res.id)
                    : support::PathTable::kNone;
    res.object = parsed_object(res, *data);
    if (!res.object) {
      verdict = "not an object, skipped";
    } else if (res.object->machine != machine) {
      // The System V rule the paper leans on (§IV): a candidate whose
      // architecture does not match is silently ignored and the search
      // goes on.
      verdict = "wrong architecture, skipped";
    }
  }
  if (probe_log_) {
    std::string line = "trying " + res.path + " ... ";
    line += verdict;
    probe_log_->push_back(std::move(line));
  }
  return verdict == "found";
}

bool Loader::probe_file(Resolution& res, elf::Machine machine) {
  // kNone (possible past the interner byte budget) probes by string;
  // either way the candidate is charged exactly one counted open(2).
  const vfs::FileData* data = res.id != support::PathTable::kNone
                                  ? fs_.open(res.id)
                                  : fs_.open(res.path);
  return classify_probe(res, data, machine);
}

namespace {

std::string join_path(std::string_view dir, std::string_view name) {
  std::string out(dir == "/" ? std::string_view{} : dir);
  out += '/';
  out += name;
  return out;
}

}  // namespace

Loader::DirRef Loader::dir_ref(std::string_view dir) const {
  DirRef ref;
  if (dir.empty() || dir.front() != '/') {
    ref.id = paths_->intern_under(support::PathTable::kRoot, dir);
    if (ref.id == support::PathTable::kNone) {
      ref.text = vfs::normalize_path("/" + std::string(dir));
    }
  } else {
    ref.id = paths_->intern(dir);
    if (ref.id == support::PathTable::kNone) ref.text = vfs::normalize_path(dir);
  }
  return ref;
}

void Loader::add_search_dirs(DirList& dirs,
                             const std::vector<std::string>& entries,
                             const std::string* origin_of) const {
  std::string storage;
  for (const auto& entry : entries) {
    DirRef plain = dir_ref(origin_of != nullptr
                               ? expand_origin(entry, *origin_of, storage)
                               : std::string_view(entry));
    plain.source = dirs.empty() ? 0 : dirs.back().source + 1;
    if (policy_->probes_hwcaps()) {
      for (const auto& hwcap : config_.hwcaps) {
        DirRef sub;
        sub.source = plain.source;
        if (plain.id != support::PathTable::kNone) {
          sub.id = paths_->intern_under(plain.id, hwcap);
        }
        if (sub.id == support::PathTable::kNone) {
          sub.text = join_path(plain.id != support::PathTable::kNone
                                   ? paths_->str(plain.id)
                                   : plain.text,
                               hwcap);
        }
        dirs.push_back(std::move(sub));
      }
    }
    dirs.push_back(std::move(plain));
  }
}

bool Loader::probe_candidate(DirRef& dir, const std::string& name,
                             elf::Machine machine, Resolution& res) {
  res.id = support::PathTable::kNone;
  if (dir.id == support::PathTable::kNone) {  // past the byte budget
    res.path = join_path(dir.text, name);
    return classify_probe(res, fs_.open(res.path), machine);
  }
  if (!dir.handle) dir.handle = fs_.open_dir(dir.id);
  const vfs::FileData* data = fs_.open_child(*dir.handle, name);
  if (data == nullptr) {
    if (probe_log_ == nullptr) return false;
    paths_->child_str(dir.id, name, res.path);
  } else {
    res.id = paths_->child(dir.id, name);
    if (res.id != support::PathTable::kNone) {
      res.path = paths_->str(res.id);
    } else {
      paths_->child_str(dir.id, name, res.path);
    }
  }
  return classify_probe(res, data, machine);
}

Loader::DirProbe Loader::probe_dirs(DirList& dirs, const std::string& name,
                                    elf::Machine machine) {
  DirProbe probe;
  for (DirRef& dir : dirs) {
    if (probe_candidate(dir, name, machine, probe.res)) {
      probe.dir = dir.source;
      return probe;
    }
  }
  return DirProbe{};
}

void Loader::ensure_ld_cache() {
  if (ld_cache_built_) return;
  ld_cache_built_ = true;
  ld_cache_.clear();
  auto scan = [&](const std::vector<std::string>& dirs, HowFound how) {
    for (const auto& dir : dirs) {
      if (!fs_.exists(dir)) continue;
      const DirRef ref = dir_ref(dir);
      for (const auto& name : fs_.list_dir(dir)) {
        if (ld_cache_.contains(name)) continue;
        // Spelled from the interned candidate, so a cached hit reports
        // the same path as the uncached sweep. Entries keep working past
        // the interner byte budget: a kNone id just means the eventual
        // probe goes by string.
        CachedLib entry;
        entry.how = how;
        if (ref.id != support::PathTable::kNone) {
          entry.id = paths_->child(ref.id, name);
        }
        entry.path = entry.id != support::PathTable::kNone
                         ? paths_->str(entry.id)
                         : join_path(ref.id != support::PathTable::kNone
                                         ? paths_->str(ref.id)
                                         : ref.text,
                                     name);
        ld_cache_.emplace(name, std::move(entry));
      }
    }
  };
  scan(config_.ld_so_conf, HowFound::LdSoConf);
  scan(config_.default_paths, HowFound::DefaultPath);
}

Loader::DirList& Loader::rpath_segment(Session& session,
                                       std::size_t index) const {
  // Non-melding (glibc, Table I): an object carrying DT_RUNPATH
  // contributes nothing from its DT_RPATH. Melding (musl, §IV): RPATH and
  // RUNPATH of every link, both propagated. $ORIGIN expansion is the only
  // string work, and only for entries that actually carry a DST.
  auto [it, inserted] = session.rpath_segments.try_emplace(index);
  DirList& dirs = it->second;
  if (!inserted) return dirs;
  const LoadedObject& node = session.report.load_order[index];
  if (!node.object) return dirs;
  const bool meld = policy_->melds_rpath_runpath();
  if (meld || node.object->dyn.runpath.empty()) {
    add_search_dirs(dirs, node.object->dyn.rpath, &node.path);
  }
  if (meld) add_search_dirs(dirs, node.object->dyn.runpath, &node.path);
  return dirs;
}

void Loader::note_realpath(Session& session, support::PathId canon,
                           const std::string& real_path,
                           std::size_t index) const {
  if (canon != support::PathTable::kNone) {
    session.by_realpath.emplace(canon, index);
  } else if (!real_path.empty()) {  // string-keyed inode proxy
    session.by_realpath_str.emplace(real_path, index);
  }
}

std::optional<std::size_t> Loader::find_realpath(
    const Session& session, support::PathId canon,
    const std::string& real_path) const {
  if (canon != support::PathTable::kNone) {
    if (const auto it = session.by_realpath.find(canon);
        it != session.by_realpath.end()) {
      return it->second;
    }
  } else if (const auto it = session.by_realpath_str.find(real_path);
             it != session.by_realpath_str.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::optional<std::size_t> Loader::dedup_lookup(Session& session,
                                                const std::string& name) const {
  if (const auto it = session.by_name.find(name); it != session.by_name.end()) {
    return it->second;
  }
  if (policy_->dedups_by_soname()) {
    // glibc also satisfies requests from the DT_SONAME of anything already
    // loaded — the dedup Shrinkwrap exploits (Fig 5). Musl does not (§IV).
    if (const auto it = session.by_soname.find(name);
        it != session.by_soname.end()) {
      return it->second;
    }
  }
  return std::nullopt;
}

Loader::Resolution Loader::search(Session& session, const std::string& name,
                                  std::size_t requester_index) {
  const auto& order = session.report.load_order;
  const LoadedObject& requester = order[requester_index];
  const elf::Machine machine =
      order[0].object ? order[0].object->machine : elf::Machine::X86_64;

  // Needed entries containing '/' are used as-is (after DST expansion).
  if (name.find('/') != std::string::npos) {
    std::string storage;
    const std::string_view expanded =
        expand_origin(name, requester.path, storage);
    Resolution res;
    if (!expanded.empty() && expanded.front() == '/') {
      res.id = paths_->intern(expanded);
      res.path = res.id != support::PathTable::kNone
                     ? paths_->str(res.id)
                     : vfs::normalize_path(expanded);  // past the budget
    } else {
      // Relative entry with '/': probing throws like open() always has.
      res.path = std::string(expanded);
      res.id = fs_.intern(res.path);
    }
    if (!probe_file(res, machine)) return Resolution{};
    res.how = HowFound::AbsolutePath;
    return res;
  }

  // Per-application loader cache: consulted before any directory search.
  if (const auto it = session.app_cache.find(name);
      it != session.app_cache.end()) {
    Resolution res;
    res.path = it->second;
    res.id = fs_.intern(res.path);
    if (probe_file(res, machine)) {
      res.how = HowFound::AppCache;
      return res;
    }
    // Stale cache entry: fall through to the normal search.
  }

  // Run the policy's phases in dialect order, e.g. glibc (Table I): RPATH
  // chain, LD_LIBRARY_PATH, RUNPATH, ld.so.cache, defaults; musl (§IV):
  // LD_LIBRARY_PATH, melded inherited chain, system dirs.
  for (const SearchPhase phase : policy_->phases()) {
    Resolution res = search_phase(phase, session, name, requester_index,
                                  machine);
    if (res.how != HowFound::NotFound) return res;
  }
  return Resolution{};
}

Loader::Resolution Loader::search_phase(SearchPhase phase, Session& session,
                                        const std::string& name,
                                        std::size_t requester_index,
                                        elf::Machine machine) {
  const LoadedObject& requester =
      session.report.load_order[requester_index];
  // Each phase sweeps its search dirs in order; the accepting dir's source
  // index maps back to the phase-specific HowFound label.
  const auto found = [](DirProbe& hit, HowFound how) {
    hit.res.how = how;
    return std::move(hit.res);
  };
  switch (phase) {
    case SearchPhase::RpathChain: {
      // The requester's segment, then each ancestor's up to the
      // executable. Non-melding, a requester with DT_RUNPATH disables the
      // whole chain.
      const bool meld = policy_->melds_rpath_runpath();
      if (!requester.object ||
          (!meld && !requester.object->dyn.runpath.empty())) {
        return Resolution{};
      }
      const auto& order = session.report.load_order;
      for (auto index = static_cast<std::int64_t>(requester_index);
           index >= 0; index = order[static_cast<std::size_t>(index)]
                                   .parent_index) {
        const auto node = static_cast<std::size_t>(index);
        DirProbe hit = probe_dirs(rpath_segment(session, node), name, machine);
        if (!hit.found()) continue;
        // Melding dialects historically label only the first own entry as
        // the requester's rpath (musl has no RPATH/RUNPATH distinction to
        // report); non-melding labels every own DT_RPATH entry.
        const bool own_hit =
            node == requester_index && (!meld || hit.dir == 0);
        return found(hit,
                     own_hit ? HowFound::Rpath : HowFound::RpathAncestor);
      }
      return Resolution{};
    }
    case SearchPhase::LdLibraryPath: {
      if (!session.library_path) {
        add_search_dirs(session.library_path.emplace(),
                        session.env->ld_library_path, nullptr);
      }
      DirProbe hit = probe_dirs(*session.library_path, name, machine);
      if (!hit.found()) return Resolution{};
      return found(hit, HowFound::LdLibraryPath);
    }
    case SearchPhase::Runpath: {
      if (!requester.object) return Resolution{};
      auto [it, inserted] = session.runpaths.try_emplace(requester_index);
      if (inserted) {
        add_search_dirs(it->second, requester.object->dyn.runpath,
                        &requester.path);
      }
      DirProbe hit = probe_dirs(it->second, name, machine);
      if (!hit.found()) return Resolution{};
      return found(hit, HowFound::Runpath);
    }
    case SearchPhase::SystemPaths: {
      if (policy_->uses_ld_cache() && config_.use_ld_cache) {
        ensure_ld_cache();
        if (const auto it = ld_cache_.find(name); it != ld_cache_.end()) {
          // The cache told us where to look; the loader still open()s it.
          Resolution res;
          res.path = it->second.path;
          res.how = it->second.how;
          res.id = it->second.id;
          if (probe_file(res, machine)) return res;
        }
        return Resolution{};
      }
      // No cache: sweep ld.so.conf dirs then the trusted defaults; the
      // boundary index decides the label.
      if (!session.system_dirs) {
        DirList& dirs = session.system_dirs.emplace();
        add_search_dirs(dirs, config_.ld_so_conf, nullptr);
        add_search_dirs(dirs, config_.default_paths, nullptr);
      }
      DirProbe hit = probe_dirs(*session.system_dirs, name, machine);
      if (!hit.found()) return Resolution{};
      return found(hit, hit.dir < config_.ld_so_conf.size()
                            ? HowFound::LdSoConf
                            : HowFound::DefaultPath);
    }
  }
  return Resolution{};
}

std::size_t Loader::register_object(Session& session, LoadedObject loaded,
                                    support::PathId canon) {
  auto& order = session.report.load_order;
  const std::size_t index = order.size();
  // Dedup keys. Musl never dedups by soname (§IV); both dedup by the
  // requested string and by canonical path (the inode proxy).
  session.by_name.emplace(loaded.name, index);
  note_realpath(session, canon, loaded.real_path, index);
  if (loaded.object && !loaded.object->dyn.soname.empty() &&
      policy_->dedups_by_soname()) {
    session.by_soname.emplace(loaded.object->dyn.soname, index);
  }
  order.push_back(std::move(loaded));
  return index;
}

LoadReport Loader::load(const std::string& exe_path, const Environment& env) {
  Session session;
  session.env = &env;
  session.report.success = true;
  probe_log_ = config_.record_probes ? &session.report.probe_log : nullptr;
  const vfs::SyscallStats before = fs_.stats();

  // Open + read the executable itself (execve's work).
  const vfs::FileData* exe_data = fs_.open(exe_path);
  if (exe_data == nullptr) {
    throw FsError("cannot execute: " + exe_path);
  }
  Resolution exe;
  exe.path = exe_path;
  exe.how = HowFound::Root;
  exe.id = fs_.intern(exe_path);
  if (exe.id != support::PathTable::kNone) {
    exe.canon = fs_.resolve_canonical(exe.id);
  }
  auto exe_object = parsed_object(exe, *exe_data);
  if (!exe_object) {
    throw ElfError("not a SELF executable: " + exe_path);
  }
  count_read(exe.id, exe.path);
  // Read the per-application loader cache, if enabled and present. The
  // loader pays one open() for the cache file itself.
  if (config_.use_app_cache) {
    const std::string cache_path = exe_path + config_.app_cache_suffix;
    if (const vfs::FileData* cache = fs_.open(cache_path)) {
      for (const auto& line : support::split(cache->bytes, '\n')) {
        const auto space = line.find(' ');
        if (space == std::string::npos) continue;
        session.app_cache.emplace(line.substr(0, space),
                                  line.substr(space + 1));
      }
    }
  }

  LoadedObject root;
  root.name = exe_path;
  root.path = exe_path;
  root.real_path = real_path_of(exe);
  root.how = HowFound::Root;
  root.depth = 0;
  root.parent_index = -1;
  root.object = exe_object;
  register_object(session, std::move(root), exe.canon);

  std::deque<WorkItem> queue;

  // LD_PRELOAD objects load before anything from the needed lists and are
  // searched with the executable as the requester.
  for (const auto& preload : env.ld_preload) {
    Resolution res;
    if (preload.find('/') != std::string::npos) {
      res.path = preload;
      res.id = fs_.intern(preload);
      if (probe_file(res, exe_object->machine)) res.how = HowFound::Preload;
    } else {
      res = search(session, preload, 0);
    }
    LoadedObject loaded;
    loaded.name = preload;
    loaded.requested_by = "LD_PRELOAD";
    loaded.depth = 1;
    loaded.parent_index = 0;
    if (res.how == HowFound::NotFound) {
      session.report.requests.push_back(loaded);
      session.report.missing.push_back(loaded);
      // glibc warns but continues on missing preloads.
      continue;
    }
    loaded.how = HowFound::Preload;
    loaded.real_path = real_path_of(res);
    loaded.object = res.object;
    count_read(res.id, res.path);
    loaded.path = std::move(res.path);
    session.report.requests.push_back(loaded);
    register_object(session, std::move(loaded), res.canon);
  }

  // Initial BFS scope: the executable's needed entries, then each
  // preload's, exactly the order ld.so seeds its link-map search list.
  for (std::size_t i = 0; i < session.report.load_order.size(); ++i) {
    enqueue_needed_deque(session, i, queue);
  }

  while (!queue.empty()) {
    const WorkItem item = std::move(queue.front());
    queue.pop_front();
    process_request(session, item, queue);
  }

  session.report.stats = stats_delta(before, fs_.stats());
  probe_log_ = nullptr;
  return std::move(session.report);
}

void Loader::process_request(Session& session, const WorkItem& item,
                             std::deque<WorkItem>& queue) {
  const LoadedObject& requester = session.report.load_order[item.requester_index];

  LoadedObject request;
  request.name = item.name;
  request.requested_by = requester.path;
  request.depth = requester.depth + 1;
  request.parent_index = static_cast<std::int64_t>(item.requester_index);

  // Dedup by name/soname before touching the filesystem.
  if (const auto hit = dedup_lookup(session, item.name)) {
    const LoadedObject& original = session.report.load_order[*hit];
    request.path = original.path;
    request.real_path = original.real_path;
    request.how = HowFound::Cache;
    request.object = original.object;
    if (config_.classify_cache_hits) {
      // What would a pure search from this requester have found? Probe
      // uncounted (and unlogged) so the measured workload is unchanged.
      fs_.set_counting(false);
      std::vector<std::string>* saved_log = probe_log_;
      probe_log_ = nullptr;
      const Resolution shadow = search(session, item.name, item.requester_index);
      probe_log_ = saved_log;
      fs_.set_counting(true);
      request.cache_search_how = shadow.how;
    }
    session.report.requests.push_back(std::move(request));
    return;
  }

  Resolution res = search(session, item.name, item.requester_index);
  if (res.how == HowFound::NotFound) {
    request.how = HowFound::NotFound;
    session.report.requests.push_back(request);
    session.report.missing.push_back(std::move(request));
    session.report.success = false;
    return;
  }

  request.real_path = real_path_of(res);
  request.path = std::move(res.path);

  // Post-resolution inode dedup (both dialects; this is how musl avoids
  // double-loading a file reached via two different strings).
  const auto real_hit = find_realpath(session, res.canon, request.real_path);
  if (real_hit.has_value()) {
    const LoadedObject& original = session.report.load_order[*real_hit];
    request.how = HowFound::Cache;
    request.object = original.object;
    // Record the requested name as now-known (glibc adds it to l_libname).
    session.by_name.emplace(item.name, *real_hit);
    session.report.requests.push_back(std::move(request));
    return;
  }

  request.how = res.how;
  request.object = std::move(res.object);
  assert(request.object && "an accepted probe carries its object");
  count_read(res.id, request.path);
  session.report.requests.push_back(request);
  const std::size_t index =
      register_object(session, std::move(request), res.canon);
  enqueue_needed_deque(session, index, queue);
}

void Loader::enqueue_needed_deque(Session& session, std::size_t index,
                                  std::deque<WorkItem>& queue) {
  const auto& obj = session.report.load_order[index];
  if (!obj.object) return;
  for (const auto& entry : obj.object->dyn.needed) {
    queue.push_back(WorkItem{entry, index});
  }
}

LoadedObject Loader::dlopen(LoadReport& report, const std::string& caller_path,
                            const std::string& name, const Environment& env) {
  // Rebuild session state from the existing report.
  Session session;
  session.env = &env;
  session.report = std::move(report);
  for (std::size_t i = 0; i < session.report.load_order.size(); ++i) {
    const auto& obj = session.report.load_order[i];
    session.by_name.emplace(obj.name, i);
    if (!obj.real_path.empty()) {
      note_realpath(session, fs_.intern(obj.real_path), obj.real_path, i);
    }
    if (policy_->dedups_by_soname() && obj.object &&
        !obj.object->dyn.soname.empty()) {
      session.by_soname.emplace(obj.object->dyn.soname, i);
    }
  }
  std::size_t caller_index = 0;
  bool caller_found = false;
  for (std::size_t i = 0; i < session.report.load_order.size(); ++i) {
    const auto& obj = session.report.load_order[i];
    if (obj.path == caller_path || obj.real_path == caller_path) {
      caller_index = i;
      caller_found = true;
      break;
    }
  }
  if (!caller_found) {
    report = std::move(session.report);
    throw Error("dlopen caller not loaded: " + caller_path);
  }

  const vfs::SyscallStats before = fs_.stats();
  std::deque<WorkItem> queue;
  queue.push_back(WorkItem{name, caller_index});
  const std::size_t first_request = session.report.requests.size();
  while (!queue.empty()) {
    const WorkItem item = std::move(queue.front());
    queue.pop_front();
    process_request(session, item, queue);
  }
  auto delta = stats_delta(before, fs_.stats());
  session.report.stats += delta;

  LoadedObject result = session.report.requests[first_request];
  report = std::move(session.report);
  return result;
}

}  // namespace depchaos::loader
