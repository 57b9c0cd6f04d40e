#!/usr/bin/env sh
# Counted lines: non-blank, non-`//` lines above a file's first `#[cfg(test)]`,
# per crate and (for the crates named as arguments; default core cluster sim)
# per file. ci.sh prints this table; nothing gates on it.
cd "$(dirname "$0")/.." || exit 1
count() { find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*(\/\/|$)/ { n++ } END { print n + 0 }'; }
for crate in crates/*/src; do
    name=${crate#crates/} name=${name%/src}
    printf '%-14s %6d\n' "$name" "$(count "$crate")"
    case " ${*:-core cluster sim} " in *" $name "*)
        for f in $(find "$crate" -name '*.rs' | sort); do printf '  %-20s %6d\n' "${f#"$crate"/}" "$(count "$f")"; done ;;
    esac
done
printf '%-14s %6d\n' 'crates/*/src' "$(count crates/*/src)"
