//! The Appendix I "Utilities" class: MiniC kernels of the twelve Unix
//! tools, with synthetic inputs embedded as globals.

use crate::textgen::{c_like, escape, int_list, ints, text};
use crate::Scale;

/// `cal` — calendar generator: Zeller day-of-week + month layout into a
/// character buffer.
pub fn cal(scale: Scale) -> String {
    let years = match scale {
        Scale::Test => 4,
        Scale::Paper => 60,
    };
    format!(
        r#"
int mdays[12] = {{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}};
char buf[4096];
int pos;

int leap(int y) {{
    if (y % 400 == 0) return 1;
    if (y % 100 == 0) return 0;
    return y % 4 == 0;
}}

/* Zeller's congruence: day of week of the 1st of month m in year y. */
int dow(int y, int m) {{
    int q = 1;
    if (m < 3) {{ m += 12; y--; }}
    int k = y % 100;
    int j = y / 100;
    return (q + (13 * (m + 1)) / 5 + k + k / 4 + j / 4 + 5 * j) % 7;
}}

void put(int c) {{
    buf[pos % 4096] = c;
    pos++;
}}

void month(int y, int m) {{
    int start = dow(y, m + 1);
    int n = mdays[m];
    if (m == 1 && leap(y)) n = 29;
    int cell = 0;
    for (int i = 0; i < start; i++) {{ put(' '); put(' '); put(' '); cell++; }}
    for (int d = 1; d <= n; d++) {{
        if (d >= 10) put('0' + d / 10); else put(' ');
        put('0' + d % 10);
        put(' ');
        cell++;
        if (cell == 7) {{ put(10); cell = 0; }}
    }}
    put(10);
}}

int main() {{
    pos = 0;
    for (int y = 1970; y < 1970 + {years}; y++)
        for (int m = 0; m < 12; m++)
            month(y, m);
    int sum = 0;
    for (int i = 0; i < 4096; i++) sum += buf[i];
    return (sum + pos) % 256;
}}
"#
    )
}

/// `cb` — C beautifier: re-indent a C-like text by brace depth.
pub fn cb(scale: Scale) -> String {
    let stmts = match scale {
        Scale::Test => 60,
        Scale::Paper => 700,
    };
    let input = escape(&c_like(11, stmts));
    format!(
        r#"
char input[] = "{input}";
char out[16384];
int pos;

void emit(int c) {{
    out[pos % 16384] = c;
    pos++;
}}

int main() {{
    int depth = 0;
    int bol = 1;
    pos = 0;
    for (char *p = input; *p; p++) {{
        char c = *p;
        if (c == '}}') depth--;
        if (bol && c != 10) {{
            for (int i = 0; i < depth; i++) {{ emit(' '); emit(' '); }}
            bol = 0;
        }}
        emit(c);
        if (c == '{{') depth++;
        if (c == 10) bol = 1;
    }}
    int sum = 0;
    for (int i = 0; i < 16384; i++) sum += out[i];
    return (sum + depth) % 256;
}}
"#
    )
}

/// `compact` — run-length compression + decompression + verification.
pub fn compact(scale: Scale) -> String {
    let words = match scale {
        Scale::Test => 80,
        Scale::Paper => 1500,
    };
    // Text with runs: duplicate some characters.
    let base = text(13, words);
    let mut runny = String::new();
    for (i, c) in base.chars().enumerate() {
        runny.push(c);
        if i % 5 == 0 {
            runny.push(c);
            runny.push(c);
        }
    }
    let input = escape(&runny);
    format!(
        r#"
char input[] = "{input}";
char packed[32768];
char unpacked[32768];

int compress() {{
    int o = 0;
    char *p = input;
    while (*p) {{
        char c = *p;
        int run = 0;
        while (p[run] == c && run < 255) run++;
        packed[o++] = run;
        packed[o++] = c;
        p += run;
    }}
    packed[o] = 0;
    return o;
}}

int expand(int len) {{
    int o = 0;
    for (int i = 0; i < len; i += 2) {{
        int run = packed[i];
        char c = packed[i + 1];
        for (int j = 0; j < run; j++) unpacked[o++] = c;
    }}
    unpacked[o] = 0;
    return o;
}}

int main() {{
    int clen = compress();
    int ulen = expand(clen);
    /* verify round trip */
    for (int i = 0; i < ulen; i++)
        if (unpacked[i] != input[i]) return 255;
    if (input[ulen] != 0) return 254;
    return (clen * 3 + ulen) % 251;
}}
"#
    )
}

/// `diff` — longest-common-subsequence over two line-hash sequences.
pub fn diff(scale: Scale) -> String {
    let n = match scale {
        Scale::Test => 24,
        Scale::Paper => 110,
    };
    let a = ints(17, n, 0, 40);
    // b: a mutated copy of a (realistic diff input).
    let mut b = a.clone();
    for (i, v) in ints(19, n / 4, 0, 40).iter().enumerate() {
        let idx = (i * 7 + 3) % b.len();
        b[idx] = *v;
    }
    format!(
        r#"
int a[{n}] = {la};
int b[{n}] = {lb};
int dp[{n1}][{n1}];

int max(int x, int y) {{ return x > y ? x : y; }}

int main() {{
    for (int i = 0; i <= {n}; i++) dp[i][0] = 0;
    for (int j = 0; j <= {n}; j++) dp[0][j] = 0;
    for (int i = 1; i <= {n}; i++) {{
        for (int j = 1; j <= {n}; j++) {{
            if (a[i - 1] == b[j - 1])
                dp[i][j] = dp[i - 1][j - 1] + 1;
            else
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1]);
        }}
    }}
    int lcs = dp[{n}][{n}];
    /* count edit operations by walking back */
    int i = {n}, j = {n}, edits = 0;
    while (i > 0 && j > 0) {{
        if (a[i - 1] == b[j - 1]) {{ i--; j--; }}
        else if (dp[i - 1][j] >= dp[i][j - 1]) {{ i--; edits++; }}
        else {{ j--; edits++; }}
    }}
    edits += i + j;
    return (lcs * 10 + edits) % 256;
}}
"#,
        n = n,
        n1 = n + 1,
        la = int_list(&a),
        lb = int_list(&b),
    )
}

/// `grep` — substring search over text.
pub fn grep(scale: Scale) -> String {
    let words = match scale {
        Scale::Test => 150,
        Scale::Paper => 4000,
    };
    let input = escape(&text(23, words));
    format!(
        r#"
char haystack[] = "{input}";
char pat[] = "register";

int match_at(char *s, char *p) {{
    while (*p) {{
        if (*s != *p) return 0;
        s++; p++;
    }}
    return 1;
}}

int main() {{
    int count = 0;
    int lines = 1;
    int line_hits = 0;
    int hit_this_line = 0;
    for (char *s = haystack; *s; s++) {{
        if (*s == 10) {{
            lines++;
            if (hit_this_line) line_hits++;
            hit_this_line = 0;
        }}
        if (*s == pat[0] && match_at(s, pat)) {{
            count++;
            hit_this_line = 1;
        }}
    }}
    if (hit_this_line) line_hits++;
    return (count * 16 + line_hits + lines) % 256;
}}
"#
    )
}

/// `nroff` — fill and adjust text to a 60-column measure.
pub fn nroff(scale: Scale) -> String {
    let words = match scale {
        Scale::Test => 120,
        Scale::Paper => 3000,
    };
    let input = escape(&text(29, words));
    format!(
        r#"
char input[] = "{input}";
char out[65536];
int pos;
char word[64];

void putc_(int c) {{ out[pos % 65536] = c; pos++; }}

int main() {{
    int col = 0;
    int wlen = 0;
    pos = 0;
    for (char *p = input; ; p++) {{
        char c = *p;
        if (c == ' ' || c == 10 || c == 0) {{
            if (wlen > 0) {{
                if (col + wlen + 1 > 60) {{ putc_(10); col = 0; }}
                else if (col > 0) {{ putc_(' '); col++; }}
                for (int i = 0; i < wlen; i++) putc_(word[i]);
                col += wlen;
                wlen = 0;
            }}
            if (c == 0) break;
        }} else if (wlen < 63) {{
            word[wlen++] = c;
        }}
    }}
    putc_(10);
    int sum = 0;
    for (int i = 0; i < 65536; i++) sum += out[i];
    return (sum + pos) % 256;
}}
"#
    )
}

/// `od` — octal dump of a byte buffer.
pub fn od(scale: Scale) -> String {
    let words = match scale {
        Scale::Test => 100,
        Scale::Paper => 2500,
    };
    let input = escape(&text(31, words));
    format!(
        r#"
char input[] = "{input}";
char out[65536];
int pos;

void putc_(int c) {{ out[pos % 65536] = c; pos++; }}

void octal(int v, int digits) {{
    for (int s = (digits - 1) * 3; s >= 0; s -= 3)
        putc_('0' + ((v >> s) & 7));
}}

int main() {{
    pos = 0;
    int addr = 0;
    char *p = input;
    while (*p) {{
        octal(addr, 7);
        for (int i = 0; i < 8 && p[i]; i++) {{
            putc_(' ');
            octal(p[i], 3);
        }}
        putc_(10);
        int step = 0;
        while (step < 8 && *p) {{ p++; step++; addr++; }}
    }}
    int sum = 0;
    for (int i = 0; i < 65536; i++) sum += out[i];
    return (sum + addr) % 256;
}}
"#
    )
}

/// `sed` — stream substitution `s/the/THE/g` plus line deletion.
pub fn sed(scale: Scale) -> String {
    let words = match scale {
        Scale::Test => 150,
        Scale::Paper => 3500,
    };
    let input = escape(&text(37, words));
    format!(
        r#"
char input[] = "{input}";
char out[65536];
int pos;

void putc_(int c) {{ out[pos % 65536] = c; pos++; }}

int starts(char *s, char *p) {{
    while (*p) {{
        if (*s != *p) return 0;
        s++; p++;
    }}
    return 1;
}}

char pat[] = "the";
char rep[] = "THE";

int main() {{
    int subs = 0;
    pos = 0;
    for (char *s = haystackptr(); *s; ) {{
        if (starts(s, pat)) {{
            for (char *r = rep; *r; r++) putc_(*r);
            s += 3;
            subs++;
        }} else {{
            putc_(*s);
            s++;
        }}
    }}
    int sum = 0;
    for (int i = 0; i < 65536; i++) sum += out[i];
    return (sum + subs * 5) % 256;
}}

char *haystackptr() {{ return input; }}
"#
    )
}

/// `sort` — recursive quicksort plus binary-search probes.
pub fn sort(scale: Scale) -> String {
    let n = match scale {
        Scale::Test => 120,
        Scale::Paper => 3000,
    };
    let data = ints(41, n, -10_000, 10_000);
    format!(
        r#"
int data[{n}] = {init};

void swap(int *a, int *b) {{
    int t = *a;
    *a = *b;
    *b = t;
}}

void qsort_(int lo, int hi) {{
    if (lo >= hi) return;
    int pivot = data[(lo + hi) / 2];
    int i = lo, j = hi;
    while (i <= j) {{
        while (data[i] < pivot) i++;
        while (data[j] > pivot) j--;
        if (i <= j) {{
            swap(&data[i], &data[j]);
            i++; j--;
        }}
    }}
    qsort_(lo, j);
    qsort_(i, hi);
}}

int bsearch_(int key) {{
    int lo = 0, hi = {n} - 1;
    while (lo <= hi) {{
        int mid = (lo + hi) / 2;
        if (data[mid] == key) return mid;
        if (data[mid] < key) lo = mid + 1;
        else hi = mid - 1;
    }}
    return -1;
}}

int main() {{
    qsort_(0, {n} - 1);
    for (int i = 1; i < {n}; i++)
        if (data[i - 1] > data[i]) return 255;
    int found = 0;
    for (int i = 0; i < {n}; i += 3)
        if (bsearch_(data[i]) >= 0) found++;
    return (data[0] + data[{n} - 1] + found) % 256;
}}
"#,
        n = n,
        init = int_list(&data),
    )
}

/// `spline` — natural cubic spline coefficients and interpolation
/// (single-precision float, like the paper's machines).
pub fn spline(scale: Scale) -> String {
    let n = match scale {
        Scale::Test => 16,
        Scale::Paper => 64,
    };
    let evals = match scale {
        Scale::Test => 64,
        Scale::Paper => 2000,
    };
    let ys = ints(43, n, -50, 50);
    let ys_float = ys
        .iter()
        .map(|v| format!("{}.0", v))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"
float y[{n}] = {{{ys_float}}};
float y2[{n}];
float u[{n}];

/* natural cubic spline second derivatives (x[i] = i) */
void prep() {{
    y2[0] = 0.0;
    u[0] = 0.0;
    for (int i = 1; i < {n} - 1; i++) {{
        float p = 0.5 * y2[i - 1] + 2.0;
        y2[i] = -0.5 / p;
        float d = y[i + 1] - 2.0 * y[i] + y[i - 1];
        u[i] = (3.0 * d - 0.5 * u[i - 1]) / p;
    }}
    y2[{n} - 1] = 0.0;
    for (int k = {n} - 2; k >= 0; k--)
        y2[k] = y2[k] * y2[k + 1] + u[k];
}}

float eval(float x) {{
    int k = (int)x;
    if (k < 0) k = 0;
    if (k > {n} - 2) k = {n} - 2;
    float b = x - k;
    float a = 1.0 - b;
    return a * y[k] + b * y[k + 1]
        + ((a * a * a - a) * y2[k] + (b * b * b - b) * y2[k + 1]) / 6.0;
}}

int main() {{
    prep();
    float sum = 0.0;
    float step = ({n}.0 - 1.0) / {evals}.0;
    float x = 0.0;
    for (int i = 0; i < {evals}; i++) {{
        sum = sum + eval(x);
        x = x + step;
    }}
    int s = (int)sum;
    if (s < 0) s = -s;
    return s % 256;
}}
"#
    )
}

/// `tr` — translate characters through a 256-entry table.
pub fn tr(scale: Scale) -> String {
    let words = match scale {
        Scale::Test => 200,
        Scale::Paper => 5000,
    };
    let input = escape(&text(47, words));
    format!(
        r#"
char input[] = "{input}";
char table[256];

int main() {{
    /* identity, then uppercase letters and fold digits */
    for (int i = 0; i < 256; i++) table[i] = i;
    for (int c = 'a'; c <= 'z'; c++) table[c] = c - 32;
    for (int c = '0'; c <= '9'; c++) table[c] = '#';
    int sum = 0;
    int changed = 0;
    for (char *p = input; *p; p++) {{
        char t = table[*p];
        if (t != *p) changed++;
        sum += t;
    }}
    return (sum + changed) % 256;
}}
"#
    )
}

/// `wc` — count lines, words, characters.
pub fn wc(scale: Scale) -> String {
    let words = match scale {
        Scale::Test => 250,
        Scale::Paper => 6000,
    };
    let input = escape(&text(53, words));
    format!(
        r#"
char input[] = "{input}";

int main() {{
    int lines = 0, words = 0, chars = 0;
    int in_word = 0;
    for (char *p = input; *p; p++) {{
        chars++;
        if (*p == 10) lines++;
        if (*p == ' ' || *p == 10 || *p == 9) {{
            in_word = 0;
        }} else if (!in_word) {{
            in_word = 1;
            words++;
        }}
    }}
    return (lines * 100 + words * 10 + chars) % 256;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_utilities_generate_nonempty_source() {
        for f in [
            cal, cb, compact, diff, grep, nroff, od, sed, sort, spline, tr, wc,
        ] {
            let s = f(Scale::Test);
            assert!(s.len() > 100);
            assert!(s.contains("int main("));
        }
    }
}
