# size.awk counts Go source lines for `make size`: per group and in total,
# all lines and code-only lines (neither blank nor comment-only). Files are
# grouped by directory — internal/<pkg>, or the first path component — or,
# with -v perfile=1, not at all. Grouped, it ends with ROADMAP item 5's set
# (internal/core, maze, server and gateway, subpackages included). Run it
# over non-test files.

FNR == 1 {
	inblock = 0
	key = FILENAME
	sub(/^\.\//, "", key)
	if (!perfile) {
		n = split(key, part, "/")
		key = (part[1] == "internal" && n > 2) ? part[1] "/" part[2] : part[1]
	}
	if (!(key in lines)) order[++groups] = key
}

{
	lines[key]++
	line = $0
	gsub(/^[ \t]+|[ \t]+$/, "", line)
	if (inblock) {
		if (line !~ /\*\//) next
		inblock = 0
		sub(/^.*\*\/[ \t]*/, "", line)
	}
	while (line ~ /^\/\*/) {
		if (line !~ /\*\//) { inblock = 1; next }
		sub(/^\/\*.*\*\/[ \t]*/, "", line)
	}
	if (line == "" || line ~ /^\/\//) next
	code[key]++
}

END {
	printf "%-28s %8s %8s\n", "", "lines", "code"
	for (i = 1; i <= groups; i++) {
		k = order[i]
		printf "%-28s %8d %8d\n", k, lines[k], code[k]
		tl += lines[k]; tc += code[k]
	}
	printf "%-28s %8d %8d\n", "total", tl, tc
	if (perfile) exit
	# ROADMAP item 5's set: the packages its size target is stated over.
	for (k in lines) if (k ~ /^internal\/(core|maze|server|gateway)$/) { il += lines[k]; ic += code[k] }
	printf "%-28s %8d %8d\n", "item 5: core+maze+server+gw", il, ic
}
