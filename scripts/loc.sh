#!/usr/bin/env bash
# The line counts ROADMAP's "net line count going down" is measured by.
#   ./scripts/loc.sh            the tree-wide counts, rpc's and fleet's production
#                               lines, the service layers' `pub fn` count, the names
#                               `crates/core` re-exports and the pub field counts of
#                               the client, cluster, store, samtree, pipeline and
#                               cache configs, one line; then every
#                               production file over the 1,200-line cap, largest
#                               first, one line each; then the production `fn`
#                               names nothing in production text names again
#   ./scripts/loc.sh FILE...    "production total" per file, for before/after tables
# "Production" is what sits above a file's first column-0 `#[cfg(test)]`.
set -euo pipefail
cd "$(dirname "$0")/.."

production() {
    awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip{n++} END{print n+0}' "$@"
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%s production %s total %s\n' "$f" "$(production "$f")" "$(wc -l <"$f")"
    done
    exit 0
fi

# shellcheck disable=SC2046  # no path in the tree holds a space
prod=$(production $(find crates/*/src examples -name '*.rs'))
rpc_prod=$(production $(find crates/rpc/src -name '*.rs'))
fleet_prod=$(production $(find crates/fleet/src -name '*.rs'))
rpc=$(cat $(find crates/rpc -name '*.rs') | wc -l)
tree=$(cat $(find crates examples tests -name '*.rs') | wc -l)
# shellcheck disable=SC2046
pubfn=$(awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip && /^ *pub fn /{n++} END{print n+0}' \
    $(find crates/server/src crates/fleet/src crates/pipeline/src crates/rpc/src -name '*.rs'))
# The names the `platod2gl` facade re-exports: every `pub use` statement's
# items, one per comma- or semicolon-separated piece.
reexports=$(awk '/^pub use /{on=1} on{buf=buf " " $0} on && /;/{on=0} END{print buf}' crates/core/src/lib.rs |
    sed -e 's/pub use [a-z0-9_]*:://g' -e 's/;/,/g' -e 's/[{}]/ /g' | tr ',' '\n' | awk 'NF{n++} END{print n+0}')
# The pub fields of config struct $1 in file $2.
pub_fields() {
    awk -v open="^pub struct $1 \\{" '$0 ~ open{in_cfg=1} in_cfg && /^}/{in_cfg=0} in_cfg && /^    pub [a-z_]+:/{n++} END{print n+0}' "$2"
}
client_fields=$(pub_fields ClientConfig crates/rpc/src/client.rs)
cluster_fields=$(pub_fields ClusterConfig crates/server/src/lib.rs)
store_fields=$(pub_fields StoreConfig crates/storage/src/topology.rs)
samtree_fields=$(pub_fields SamTreeConfig crates/samtree/src/lib.rs)
pipeline_fields=$(pub_fields PipelineConfig crates/pipeline/src/driver.rs)
cache_fields=$(pub_fields CacheConfig crates/pipeline/src/cache.rs)
echo "loc: production (crates/*/src above #[cfg(test)] + examples/) $prod | crates/rpc/src production $rpc_prod | crates/fleet/src production $fleet_prod | crates/rpc with tests $rpc | crates/ examples/ tests/ $tree | pub fn in server+fleet+pipeline+rpc src $pubfn | crates/core re-exports $reexports | ClientConfig pub fields $client_fields | ClusterConfig pub fields $cluster_fields | StoreConfig pub fields $store_fields | SamTreeConfig pub fields $samtree_fields | PipelineConfig pub fields $pipeline_fields | CacheConfig pub fields $cache_fields"
# shellcheck disable=SC2046
for f in $(find crates/*/src examples -name '*.rs'); do
    printf '%s %s\n' "$(production "$f")" "$f"
done | sort -rn | awk '$1 > 1200 {print "loc: over 1200 production lines: " $2 " " $1}'
# Test-only code: production `fn` names whose one occurrence in production
# text (crates/*/src above #[cfg(test)], examples/, perf/src) is their own
# definition — only tests, or nothing, call them.
# shellcheck disable=SC2046
prod_text=$(awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip' \
    $(find crates/*/src examples perf/src -name '*.rs'))
unused=$(comm -12 \
    <(grep -oE '\bfn [a-z_][a-z0-9_]*' <<<"$prod_text" | cut -c4- | sort -u) \
    <(grep -oE '\b[A-Za-z_][A-Za-z0-9_]*' <<<"$prod_text" | sort | uniq -c | awk '$1 == 1 {print $2}'))
echo "loc: production fns named only at their definition $(wc -w <<<"$unused"): $(tr '\n' ' ' <<<"$unused" | sed 's/ $//')"
