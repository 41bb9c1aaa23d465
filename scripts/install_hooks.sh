#!/usr/bin/env bash
# Installs the repo's git hooks. Currently one pre-commit hook: run
# flotilla-analyze over the staged C++ sources, so findings
# (docs/correctness.md, "Static analysis") surface before CI does the
# full-tree run.
# Usage:
#
#   scripts/install_hooks.sh [build-dir]
#
# The installed hook is deliberately forgiving: if the analyzer binary
# is not built it exits 0 (a fresh clone must still be able to commit —
# CI remains the authoritative gate), and it only scans staged files
# under src/ and tools/, so doc-only commits cost nothing.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=${1:-build}

hook_dir=$(git rev-parse --git-path hooks)
mkdir -p "$hook_dir"

cat > "$hook_dir/pre-commit" <<HOOK
#!/usr/bin/env bash
# Installed by scripts/install_hooks.sh — flotilla-analyze on staged
# sources. Re-run that script after moving the build directory.
set -euo pipefail
cd "\$(git rev-parse --show-toplevel)"
analyze="$build_dir/tools/flotilla-analyze"
if [ ! -x "\$analyze" ]; then
  exit 0  # analyzer not built: defer to CI
fi
staged=\$(git diff --cached --name-only --diff-filter=ACMR -- \\
  'src/*.cpp' 'src/*.cc' 'src/*.cxx' 'src/*.hpp' 'src/*.h' 'src/*.hh' \\
  'tools/*.cpp' 'tools/*.hpp')
if [ -z "\$staged" ]; then
  exit 0
fi
# shellcheck disable=SC2086
"\$analyze" \$staged
HOOK
chmod +x "$hook_dir/pre-commit"
echo "install_hooks: pre-commit installed at $hook_dir/pre-commit"
