//! The Appendix I "Benchmarks" class: dhrystone, matmult, puzzle, sieve,
//! whetstone.

use crate::textgen::{int_list, ints};
use crate::Scale;

/// `dhrystone` — the classic synthetic integer benchmark: record
/// manipulation (as parallel arrays), string copy/compare, enumeration
/// switches, and procedure calls.
pub fn dhrystone(scale: Scale) -> String {
    let loops = match scale {
        Scale::Test => 60,
        Scale::Paper => 2500,
    };
    format!(
        r#"
/* "records" as parallel arrays: [discr, enum_comp, int_comp] */
int rec_discr[4];
int rec_enum[4];
int rec_int[4];
int next_rec[4];

char str1[32] = "DHRYSTONE PROGRAM, 1ST STRING";
char str2[32] = "DHRYSTONE PROGRAM, 2ND STRING";
char strbuf[32];

int int_glob;
int bool_glob;
char ch1_glob;
char ch2_glob;
int arr1[50];
int arr2[50][50];

void strcopy(char *d, char *s) {{
    while (*s) {{ *d = *s; d++; s++; }}
    *d = 0;
}}

int strcomp(char *a, char *b) {{
    while (*a && *a == *b) {{ a++; b++; }}
    return *a - *b;
}}

int func1(int ch1, int ch2) {{
    int c = ch1;
    if (c != ch2) return 0;
    ch1_glob = c;
    return 1;
}}

int func2(char *s1, char *s2) {{
    int i = 2;
    while (i <= 2)
        if (func1(s1[i], s2[i + 1]) == 0) i++;
        else break;
    if (strcomp(s1, s2) > 0) {{
        int_glob = i + 7;
        return 1;
    }}
    return 0;
}}

void proc7(int a, int b, int *out) {{ *out = a + b + 2; }}

void proc8(int *a1, int x, int y) {{
    int z = x + 5;
    a1[z] = y;
    a1[z + 1] = a1[z];
    a1[z + 30] = z;
    for (int i = z; i <= z + 1; i++) arr2[z][i] = a1[z];
    arr2[z][z - 1] = arr2[z][z - 1] + 1;
    arr2[z + 20][z] = a1[z];
    int_glob = 5;
}}

int proc6(int val) {{
    switch (val) {{
        case 0: return bool_glob ? 0 : 3;
        case 1: return 0;
        case 2: return 1;
        case 3: return 2;
        default: return val;
    }}
}}

void proc3(int *out) {{
    if (int_glob > 0) *out = int_glob - 10;
    proc7(10, int_glob, out);
}}

void proc1(int r) {{
    next_rec[0] = rec_discr[r];
    next_rec[1] = rec_enum[r];
    next_rec[2] = rec_int[r] + int_glob;
    proc3(&next_rec[2]);
    if (next_rec[0] == 0)
        next_rec[1] = proc6(rec_enum[r]);
    else
        next_rec[2] = next_rec[2] + 1;
}}

int main() {{
    int run_sum = 0;
    for (int run = 0; run < {loops}; run++) {{
        int_glob = 0;
        bool_glob = run & 1;
        rec_discr[0] = 0; rec_enum[0] = run % 4; rec_int[0] = 40 + run % 7;
        proc8(arr1, run % 10, run % 13);
        proc1(0);
        strcopy(strbuf, str1);
        int cmp = func2(strbuf, str2);
        run_sum += int_glob + next_rec[2] + cmp + proc6(run % 5) + ch1_glob;
    }}
    return run_sum % 256;
}}
"#
    )
}

/// `matmult` — integer matrix multiplication (with a float inner product
/// pass for the FP register file).
pub fn matmult(scale: Scale) -> String {
    let n = match scale {
        Scale::Test => 10,
        Scale::Paper => 40,
    };
    let a = ints(61, n * n, -9, 10);
    let b = ints(67, n * n, -9, 10);
    format!(
        r#"
int a[{n}][{n}] = {la};
int b[{n}][{n}] = {lb};
int c[{n}][{n}];
float fa[{n}];
float fb[{n}];

int main() {{
    for (int i = 0; i < {n}; i++) {{
        for (int j = 0; j < {n}; j++) {{
            int sum = 0;
            for (int k = 0; k < {n}; k++)
                sum += a[i][k] * b[k][j];
            c[i][j] = sum;
        }}
    }}
    int trace = 0;
    for (int i = 0; i < {n}; i++) trace += c[i][i];
    /* float inner product of the first rows */
    for (int i = 0; i < {n}; i++) {{
        fa[i] = (float)a[0][i];
        fb[i] = (float)b[0][i];
    }}
    float dot = 0.0;
    for (int i = 0; i < {n}; i++) dot = dot + fa[i] * fb[i];
    int d = (int)dot;
    if (d < 0) d = -d;
    if (trace < 0) trace = -trace;
    return (trace + d) % 256;
}}
"#,
        n = n,
        la = nested_init(&a, n),
        lb = nested_init(&b, n),
    )
}

fn nested_init(vals: &[i32], n: usize) -> String {
    let rows: Vec<String> = vals.chunks(n).map(int_list).collect();
    format!("{{{}}}", rows.join(", "))
}

/// `puzzle` — Baskett's puzzle in spirit: recursive exact tiling of a
/// board with dominoes and L-trominoes, counting solutions (deep
/// recursion over arrays, as the original).
pub fn puzzle(scale: Scale) -> String {
    let (rows, cols) = match scale {
        Scale::Test => (4, 5),
        Scale::Paper => (4, 7),
    };
    format!(
        r#"
int board[{cells}];
int solutions;
int placements;

int idx(int r, int c) {{ return r * {cols} + c; }}

int fits(int r, int c) {{
    if (r < 0 || r >= {rows} || c < 0 || c >= {cols}) return 0;
    return board[idx(r, c)] == 0;
}}

void solve() {{
    /* find first empty cell */
    int cell = -1;
    for (int i = 0; i < {cells}; i++) {{
        if (board[i] == 0) {{ cell = i; break; }}
    }}
    if (cell < 0) {{ solutions++; return; }}
    int r = cell / {cols};
    int c = cell % {cols};
    /* horizontal domino */
    if (fits(r, c + 1)) {{
        board[idx(r, c)] = 1; board[idx(r, c + 1)] = 1;
        placements++;
        solve();
        board[idx(r, c)] = 0; board[idx(r, c + 1)] = 0;
    }}
    /* vertical domino */
    if (fits(r + 1, c)) {{
        board[idx(r, c)] = 2; board[idx(r + 1, c)] = 2;
        placements++;
        solve();
        board[idx(r, c)] = 0; board[idx(r + 1, c)] = 0;
    }}
    /* L tromino */
    if (fits(r, c + 1) && fits(r + 1, c)) {{
        board[idx(r, c)] = 3; board[idx(r, c + 1)] = 3; board[idx(r + 1, c)] = 3;
        placements++;
        solve();
        board[idx(r, c)] = 0; board[idx(r, c + 1)] = 0; board[idx(r + 1, c)] = 0;
    }}
}}

int main() {{
    solutions = 0;
    placements = 0;
    solve();
    return (solutions + placements) % 256;
}}
"#,
        rows = rows,
        cols = cols,
        cells = rows * cols,
    )
}

/// `sieve` — the sieve of Eratosthenes, iterated.
pub fn sieve(scale: Scale) -> String {
    let (limit, iters) = match scale {
        Scale::Test => (1000, 3),
        Scale::Paper => (8190, 25),
    };
    format!(
        r#"
char flags[{limit1}];

int main() {{
    int count = 0;
    for (int iter = 0; iter < {iters}; iter++) {{
        count = 0;
        for (int i = 0; i <= {limit}; i++) flags[i] = 1;
        for (int i = 2; i <= {limit}; i++) {{
            if (flags[i]) {{
                for (int k = i + i; k <= {limit}; k += i)
                    flags[k] = 0;
                count++;
            }}
        }}
    }}
    return count % 256;
}}
"#,
        limit = limit,
        limit1 = limit + 1,
        iters = iters,
    )
}

/// `whetstone` — the classic float-dominated synthetic benchmark:
/// polynomial module, array module, and series approximations of
/// `sin`/`exp` written in MiniC (the machines have no transcendental
/// instructions).
pub fn whetstone(scale: Scale) -> String {
    let loops = match scale {
        Scale::Test => 12,
        Scale::Paper => 350,
    };
    format!(
        r#"
float e1[4];

float my_sin(float x) {{
    /* 5-term Taylor series; |x| is kept small by callers */
    float x2 = x * x;
    float term = x;
    float sum = x;
    for (int k = 1; k <= 5; k++) {{
        float d = (2 * k) * (2 * k + 1);
        term = -term * x2 / d;
        sum = sum + term;
    }}
    return sum;
}}

float my_exp(float x) {{
    float term = 1.0;
    float sum = 1.0;
    for (int k = 1; k <= 8; k++) {{
        term = term * x / (float)k;
        sum = sum + term;
    }}
    return sum;
}}

void p3(float x, float y, float *z) {{
    float x1 = 0.5 * (x + y);
    float y1 = 0.5 * (x1 + y);
    *z = (x1 + y1) / 2.0;
}}

void pa(float *e) {{
    for (int j = 0; j < 6; j++) {{
        e[0] = (e[0] + e[1] + e[2] - e[3]) * 0.5;
        e[1] = (e[0] + e[1] - e[2] + e[3]) * 0.5;
        e[2] = (e[0] - e[1] + e[2] + e[3]) * 0.5;
        e[3] = (-e[0] + e[1] + e[2] + e[3]) * 0.5;
    }}
}}

int main() {{
    float x = 1.0, y = 1.0, z = 1.0, t = 0.499975;
    int checks = 0;
    for (int i = 0; i < {loops}; i++) {{
        /* module 1: simple identifiers */
        x = (x + y + z) * t;
        y = (x + y - z) * t;
        z = (x - y + z) * t;
        /* module 2: array elements */
        e1[0] = x; e1[1] = y; e1[2] = z; e1[3] = t;
        pa(e1);
        /* module 3: trig-flavoured */
        float s = my_sin(0.5) + my_sin(0.25);
        /* module 4: exp/log-flavoured */
        float ex = my_exp(0.5) / my_exp(0.25);
        /* module 5: procedure call */
        p3(x, y, &z);
        float total = e1[0] + s + ex + z;
        if (total > 0.0) checks++;
        if (total > 1000.0) {{ x = 1.0; y = 1.0; z = 1.0; }}
    }}
    int r = (int)(x * 10.0 + y * 10.0 + z * 10.0);
    if (r < 0) r = -r;
    return (r + checks) % 256;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_generate_source() {
        for f in [dhrystone, matmult, puzzle, sieve, whetstone] {
            let s = f(Scale::Test);
            assert!(s.contains("int main("));
        }
    }

    #[test]
    fn nested_init_shapes_rows() {
        assert_eq!(nested_init(&[1, 2, 3, 4], 2), "{{1, 2}, {3, 4}}");
    }
}
