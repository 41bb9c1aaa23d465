#include "analyze/driver.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <thread>

#include "analyze/baseline.hpp"
#include "analyze/callgraph.hpp"
#include "analyze/determinism.hpp"
#include "analyze/sarif.hpp"

namespace fs = std::filesystem;

namespace flotilla::analyze {

namespace {

bool analyzable_extension(const std::string& path) {
  static const char* const kExts[] = {".cpp", ".cc", ".cxx", ".hpp",
                                      ".h",   ".hh", ".ipp"};
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  for (const char* e : kExts) {
    if (ext == e) return true;
  }
  return false;
}

std::string normalize(const std::string& path) {
  std::string out = fs::path(path).lexically_normal().generic_string();
  if (out.size() > 2 && out.compare(0, 2, "./") == 0) out = out.substr(2);
  return out;
}

// Collects analyzable sources under each root (file roots are taken
// verbatim, directory roots are walked recursively). Results are
// '/'-normalized, sorted, deduped. False (with *error) when a root does
// not exist.
bool collect_sources(const std::vector<std::string>& roots,
                     std::vector<std::string>* paths, std::string* error) {
  for (const std::string& root : roots) {
    std::error_code ec;
    const fs::file_status st = fs::status(root, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      *error = root + ": no such file or directory";
      return false;
    }
    if (fs::is_directory(st)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file(ec)) continue;
        const std::string p = it->path().generic_string();
        if (analyzable_extension(p)) paths->push_back(normalize(p));
      }
      if (ec) {
        *error = root + ": " + ec.message();
        return false;
      }
    } else {
      // Explicit files are taken verbatim, extension or not: naming a
      // file is an instruction to check it.
      paths->push_back(normalize(root));
    }
  }
  std::sort(paths->begin(), paths->end());
  paths->erase(std::unique(paths->begin(), paths->end()), paths->end());
  return true;
}

// Loads one file: lex, body index, determinism scope, paired header (for
// x.cpp, a sibling x.hpp or x.h). `display` is the path used in
// diagnostics. False (with *error) when the file cannot be read.
bool load_source(const std::string& path, const std::string& display,
                 SourceFile* out, std::string* error) {
  out->display = display;
  if (!lex_file(path, &out->lex)) {
    *error = path + ": cannot read file";
    return false;
  }
  out->bodies = build_bodies(out->lex);
  out->determinism_scope = determinism_in_scope(display);
  const std::size_t dot = path.rfind('.');
  if (dot != std::string::npos) {
    const std::string ext = path.substr(dot);
    if (ext == ".cpp" || ext == ".cc" || ext == ".cxx") {
      for (const char* hdr : {".hpp", ".h", ".hh"}) {
        const std::string header = path.substr(0, dot) + hdr;
        auto lexed = std::make_shared<LexedFile>();
        if (lex_file(header, lexed.get())) {
          out->paired_header = std::move(lexed);
          break;
        }
      }
    }
  }
  out->facts = collect_facts(out->lex, out->bodies, out->paired_header.get());
  return true;
}

// Drops findings whose line (or the line above) carries a well-formed
// FLOTILLA_LINT_ALLOW waiver for the rule.
void filter_waived(const AnalysisInput& input,
                   std::vector<Finding>* findings) {
  std::map<std::string, const LexedFile*> by_display;
  for (const SourceFile& file : input.files) {
    by_display[file.display] = &file.lex;
  }
  findings->erase(
      std::remove_if(findings->begin(), findings->end(),
                     [&](const Finding& f) {
                       const auto it = by_display.find(f.file);
                       return it != by_display.end() &&
                              waived(*it->second, f.line, f.rule);
                     }),
      findings->end());
}

}  // namespace

int run_driver(const DriverOptions& options, const PassRegistry& registry,
               std::ostream& out, std::ostream& err) {
  std::string error;
  std::vector<std::string> paths;
  if (!collect_sources(options.roots, &paths, &error)) {
    err << "flotilla-analyze: error: " << error << "\n";
    return 2;
  }

  // Phase one: load every file (lex + bodies + facts). Each load is
  // independent, so a --jobs pool splits the list; results land in
  // pre-sized slots by index, making the output identical for any job
  // count.
  unsigned jobs = options.jobs;
  if (jobs == 0) {
    // Host tooling, not simulation code: the job count cannot affect output.
    jobs = std::thread::
        hardware_concurrency();  // FLOTILLA_LINT_ALLOW(hardware-concurrency): host tooling, output is jobs-invariant
  }
  if (jobs == 0) jobs = 1;
  if (paths.size() < jobs) jobs = paths.empty() ? 1 : paths.size();

  std::vector<SourceFile> files(paths.size());
  std::vector<std::string> errors(paths.size());
  std::atomic<std::size_t> next{0};
  auto load_worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < paths.size();) {
      std::string display = paths[i];
      if (!options.strip_prefix.empty() &&
          display.compare(0, options.strip_prefix.size(),
                          options.strip_prefix) == 0) {
        display = display.substr(options.strip_prefix.size());
      }
      load_source(paths[i], display, &files[i], &errors[i]);
    }
  };
  if (jobs <= 1) {
    load_worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(load_worker);
    for (std::thread& t : pool) t.join();
  }
  for (const std::string& load_error : errors) {
    if (!load_error.empty()) {
      err << "flotilla-analyze: error: " << load_error << "\n";
      return 2;
    }
  }

  AnalysisInput input;
  input.files = std::move(files);
  std::sort(input.files.begin(), input.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.display < b.display;
            });

  // Phase two: link the per-file facts into the whole-program model the
  // interprocedural passes consume.
  input.program = std::make_shared<const ProgramModel>(build_program(input));

  std::vector<Finding> findings;
  for (const auto& pass : registry.passes()) {
    pass->run(input, &findings);
  }
  filter_waived(input, &findings);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());

  if (options.write_baseline) {
    if (options.baseline_path.empty()) {
      err << "flotilla-analyze: error: --write-baseline requires "
             "--baseline <path>\n";
      return 2;
    }
    if (!save_baseline(options.baseline_path, findings, &error)) {
      err << "flotilla-analyze: error: " << error << "\n";
      return 2;
    }
    err << "flotilla-analyze: wrote " << findings.size()
        << " finding(s) to " << options.baseline_path << "\n";
    return 0;
  }

  std::set<Finding> baseline;
  if (!options.baseline_path.empty() &&
      !load_baseline(options.baseline_path, &baseline, &error)) {
    err << "flotilla-analyze: error: " << error << "\n";
    return 2;
  }

  std::vector<Finding> fresh;
  for (const Finding& f : findings) {
    if (baseline.count(f) == 0) fresh.push_back(f);
  }

  std::ofstream file_out;
  std::ostream* sink = &out;
  if (!options.output_path.empty()) {
    file_out.open(options.output_path, std::ios::binary | std::ios::trunc);
    if (!file_out) {
      err << "flotilla-analyze: error: " << options.output_path
          << ": cannot open for writing\n";
      return 2;
    }
    sink = &file_out;
  }

  if (options.sarif) {
    std::vector<std::string> rule_ids;
    for (const auto& pass : registry.passes()) {
      for (std::string& rule : pass->rules()) {
        rule_ids.push_back(std::move(rule));
      }
    }
    std::sort(rule_ids.begin(), rule_ids.end());
    rule_ids.erase(std::unique(rule_ids.begin(), rule_ids.end()),
                   rule_ids.end());
    // SARIF carries every finding, baselined ones marked suppressed.
    std::vector<SarifResult> results;
    results.reserve(findings.size());
    for (const Finding& f : findings) {
      results.push_back({f, baseline.count(f) > 0});
    }
    write_sarif(*sink, "flotilla-analyze", rule_ids, results);
  } else {
    write_text(*sink, fresh);
  }
  if (sink == &file_out) {
    file_out.flush();
    if (!file_out) {
      err << "flotilla-analyze: error: " << options.output_path
          << ": write failed\n";
      return 2;
    }
  }

  err << "flotilla-analyze: " << input.files.size() << " file(s) checked, "
      << fresh.size() << " finding(s)";
  if (!baseline.empty()) {
    err << " (" << findings.size() - fresh.size() << " baselined)";
  }
  err << "\n";
  return fresh.empty() ? 0 : 1;
}

}  // namespace flotilla::analyze
