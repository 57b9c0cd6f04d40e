#!/usr/bin/env sh
# Counted lines: non-blank, non-`//` lines above the line that opens a file's
# test module with `#[cfg(test)]` (ci.sh holds each file to one such line,
# above its last item), per crate and (for the crates named as arguments;
# default core cluster sim) per file. The `pub` column counts the lines above the test module that
# declare a `pub` fn, struct, enum, trait, type, const, static, mod or use
# (`pub(crate)` not counted): the crate's public surface. ci.sh prints this
# table; nothing gates on it.
cd "$(dirname "$0")/.." || exit 1
count() { find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*(\/\/|$)/ { n++ } END { print n + 0 }'; }
pubs() { find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { n++ } END { print n + 0 }'; }
printf '%-14s %6s %5s\n' crate lines pub
for crate in crates/*/src; do
    name=${crate#crates/} name=${name%/src}
    printf '%-14s %6d %5d\n' "$name" "$(count "$crate")" "$(pubs "$crate")"
    case " ${*:-core cluster sim} " in *" $name "*)
        for f in $(find "$crate" -name '*.rs' | sort); do printf '  %-20s %6d\n' "${f#"$crate"/}" "$(count "$f")"; done ;;
    esac
done
printf '%-14s %6d %5d\n' 'crates/*/src' "$(count crates/*/src)" "$(pubs crates/*/src)"
