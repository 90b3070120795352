//! `br-frontend` — a MiniC compiler front end.
//!
//! This crate stands in for the authors' *vpcc* (Very Portable C Compiler)
//! front end: it turns a small-but-real C dialect into the [`br_ir`]
//! three-address IR that both code generators consume.
//!
//! # The MiniC language
//!
//! * Types: `int` (32-bit signed), `char` (8-bit unsigned), `float`
//!   (32-bit IEEE), pointers, and fixed-size (multi-dimensional) arrays.
//! * Declarations: globals with constant initializers (including string
//!   and brace-list initializers), functions with typed parameters,
//!   block-scoped locals.
//! * Statements: `if`/`else`, `while`, `do`/`while`, `for`, `switch`
//!   (non-fall-through arms), `break`, `continue`, `return`, blocks.
//! * Expressions: the usual C operator set — assignment and compound
//!   assignment, `?:`, `&&`/`||` (short-circuit), comparisons, bitwise
//!   and shift operators, `+ - * / %`, casts, pointer arithmetic, array
//!   indexing, `&`/`*`, `++`/`--` (pre and post), function calls.
//!
//! # Example
//!
//! ```
//! use br_frontend::compile;
//! use br_ir::Interpreter;
//!
//! let module = compile("int main() { int s = 0; for (int i = 1; i <= 4; i++) s += i; return s; }")?;
//! let mut interp = Interpreter::new(&module);
//! assert_eq!(interp.run("main", &[])?, 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod error;
pub mod lower;
pub mod parser;
pub mod token;

pub use error::CompileError;

use br_ir::Module;

/// Compile MiniC source text to an IR [`Module`].
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error.
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let mut module = compile_unoptimized(src)?;
    br_ir::optimize_module(&mut module);
    Ok(module)
}

/// Compile without the IR cleanup passes (for optimizer testing).
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error.
pub fn compile_unoptimized(src: &str) -> Result<Module, CompileError> {
    let program = parser::parse(src)?;
    lower::lower(&program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::Interpreter;

    fn run(src: &str) -> i32 {
        let m = compile(src).expect("compile");
        Interpreter::new(&m).run("main", &[]).expect("run")
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("int main() { return 2 + 3 * 4 - 6 / 2; }"), 11);
        assert_eq!(run("int main() { return (2 + 3) * 4 % 7; }"), 6);
        assert_eq!(run("int main() { return 1 << 4 | 3; }"), 19);
        assert_eq!(run("int main() { return -7 / 2; }"), -3);
        assert_eq!(run("int main() { return -7 % 2; }"), -1);
    }

    #[test]
    fn comparisons_yield_zero_or_one() {
        assert_eq!(
            run("int main() { return (3 < 5) + (5 < 3) + (4 == 4); }"),
            2
        );
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        let src = r#"
            int g = 0;
            int bump() { g = g + 1; return 1; }
            int main() {
                int a = 0 && bump();
                int b = 1 || bump();
                return g * 10 + a + b;
            }
        "#;
        assert_eq!(run(src), 1);
    }

    #[test]
    fn while_and_for_loops() {
        assert_eq!(
            run("int main() { int s = 0; int i = 0; while (i < 10) { s += i; i++; } return s; }"),
            45
        );
        assert_eq!(
            run("int main() { int s = 0; for (int i = 0; i < 10; i += 2) s += i; return s; }"),
            20
        );
        assert_eq!(
            run("int main() { int i = 0; do { i++; } while (i < 5); return i; }"),
            5
        );
    }

    #[test]
    fn break_and_continue() {
        let src = r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 100; i++) {
                    if (i == 10) break;
                    if (i % 2) continue;
                    s += i;
                }
                return s;  /* 0+2+4+6+8 = 20 */
            }
        "#;
        assert_eq!(run(src), 20);
    }

    #[test]
    fn functions_and_recursion() {
        let src = r#"
            int fib(int n) {
                if (n < 2) return n;
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(10); }
        "#;
        assert_eq!(run(src), 55);
    }

    #[test]
    fn pointers_and_address_of() {
        let src = r#"
            void set(int *p, int v) { *p = v; }
            int main() {
                int x = 1;
                set(&x, 42);
                return x;
            }
        "#;
        assert_eq!(run(src), 42);
    }

    #[test]
    fn arrays_and_pointer_walk() {
        let src = r#"
            int a[5] = {5, 4, 3, 2, 1};
            int main() {
                int s = 0;
                int *p = a;
                for (int i = 0; i < 5; i++) s += *p++;
                return s * 100 + a[2];
            }
        "#;
        assert_eq!(run(src), 1503);
    }

    #[test]
    fn strings_and_char_arithmetic() {
        let src = r#"
            int len(char *s) { int n = 0; while (*s++) n++; return n; }
            int main() { return len("hello") + ('b' - 'a'); }
        "#;
        assert_eq!(run(src), 6);
    }

    #[test]
    fn two_dimensional_arrays() {
        let src = r#"
            int m[3][3];
            int main() {
                for (int i = 0; i < 3; i++)
                    for (int j = 0; j < 3; j++)
                        m[i][j] = i * 3 + j;
                return m[2][1];
            }
        "#;
        assert_eq!(run(src), 7);
    }

    #[test]
    fn global_initializers() {
        let src = r#"
            int a = 3;
            int b[] = {1, 2, 3};
            char s[] = "ab";
            float f = 2.5;
            int main() { return a + b[1] + s[0] + (int)f; }
        "#;
        assert_eq!(run(src), 3 + 2 + 97 + 2);
    }

    #[test]
    fn float_arithmetic_and_casts() {
        let src = r#"
            float half(float x) { return x / 2.0; }
            int main() {
                float y = half(7.0);
                if (y > 3.4 && y < 3.6) return 1;
                return 0;
            }
        "#;
        assert_eq!(run(src), 1);
    }

    #[test]
    fn int_float_mixing() {
        assert_eq!(
            run("int main() { float x = 3; x = x + 1; return (int)(x * 2.0); }"),
            8
        );
    }

    #[test]
    fn ternary_expression() {
        assert_eq!(run("int main() { int x = 5; return x > 3 ? 10 : 20; }"), 10);
        assert_eq!(run("int main() { int x = 1; return x > 3 ? 10 : 20; }"), 20);
    }

    #[test]
    fn switch_dense_uses_jump_table() {
        let src = r#"
            int classify(int c) {
                switch (c) {
                    case 0: return 10;
                    case 1: return 11;
                    case 2: return 12;
                    case 3: return 13;
                    case 4: return 14;
                    default: return -1;
                }
            }
            int main() { return classify(3) * 1000 + classify(99) + classify(0); }
        "#;
        let m = compile(src).unwrap();
        // The dense switch must lower to an IR jump table.
        let f = m.function("classify").unwrap();
        let has_switch = f
            .blocks
            .iter()
            .any(|b| matches!(b.term(), br_ir::Inst::Switch { .. }));
        assert!(has_switch, "expected a jump-table switch");
        assert_eq!(
            Interpreter::new(&m).run("main", &[]).unwrap(),
            13 * 1000 - 1 + 10
        );
    }

    #[test]
    fn switch_sparse_uses_compare_chain() {
        let src = r#"
            int f(int c) {
                switch (c) {
                    case 1: return 1;
                    case 100: return 2;
                    default: return 0;
                }
            }
            int main() { return f(100) * 10 + f(1) + f(7); }
        "#;
        let m = compile(src).unwrap();
        let f = m.function("f").unwrap();
        let has_switch = f
            .blocks
            .iter()
            .any(|b| matches!(b.term(), br_ir::Inst::Switch { .. }));
        assert!(!has_switch, "sparse switch should be a compare chain");
        assert_eq!(Interpreter::new(&m).run("main", &[]).unwrap(), 21);
    }

    #[test]
    fn compound_assignment_operators() {
        let src = r#"
            int main() {
                int x = 10;
                x += 5; x -= 3; x *= 2; x /= 4; x %= 4;  /* ((10+5-3)*2/4)%4 = 6%4 = 2 */
                x <<= 3; x |= 1; x ^= 2; x &= 0xF;       /* ((2<<3)|1)^2 = 19, &0xF = 3 */
                return x;
            }
        "#;
        assert_eq!(run(src), 3);
    }

    #[test]
    fn pre_and_post_incdec() {
        let src = r#"
            int main() {
                int i = 5;
                int a = i++;
                int b = ++i;
                int c = i--;
                int d = --i;
                return a * 1000 + b * 100 + c * 10 + d;  /* 5,7,7,5 */
            }
        "#;
        assert_eq!(run(src), 5775);
    }

    #[test]
    fn char_values_wrap_to_byte() {
        assert_eq!(run("int main() { char c = 300; return c; }"), 44);
        assert_eq!(run("int main() { char c = 255; c++; return c; }"), 0);
    }

    #[test]
    fn logical_not() {
        assert_eq!(run("int main() { return !0 * 10 + !5; }"), 10);
    }

    #[test]
    fn pointer_difference() {
        let src = r#"
            int a[10];
            int main() { int *p = &a[7]; int *q = &a[2]; return p - q; }
        "#;
        assert_eq!(run(src), 5);
    }

    #[test]
    fn address_taken_local_lives_in_memory() {
        let src = r#"
            void twice(int *p) { *p = *p * 2; }
            int main() { int v = 21; twice(&v); return v; }
        "#;
        assert_eq!(run(src), 42);
    }

    #[test]
    fn multiple_declarators_and_pointers_per_decl() {
        let src = r#"
            int main() {
                int x = 3, *p = &x, y = 4;
                *p = *p + y;
                return x;
            }
        "#;
        assert_eq!(run(src), 7);
    }

    #[test]
    fn nested_2d_global_init() {
        let src = r#"
            int m[2][3] = {{1, 2, 3}, {4, 5, 6}};
            int main() { return m[1][2] * 10 + m[0][1]; }
        "#;
        assert_eq!(run(src), 62);
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        assert!(compile("int main() { return zzz; }").is_err());
        assert!(compile("int main() { return f(1); }").is_err());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        assert!(compile("int f(int a) { return a; } int main() { return f(1, 2); }").is_err());
    }

    #[test]
    fn void_functions() {
        let src = r#"
            int g;
            void set(int v) { g = v; }
            int main() { set(9); return g; }
        "#;
        assert_eq!(run(src), 9);
    }

    #[test]
    fn prototype_then_definition() {
        let src = r#"
            int helper(int x);
            int main() { return helper(4); }
            int helper(int x) { return x * x; }
        "#;
        assert_eq!(run(src), 16);
    }

    #[test]
    fn hex_literals_and_bitops() {
        assert_eq!(run("int main() { return (0xFF & 0x0F) ^ 0xF0; }"), 0xFF);
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        let src = r#"
            int main() {
                int x = 1;
                { int x = 2; { int x = 3; } x = x + 10; }
                return x;
            }
        "#;
        assert_eq!(run(src), 1);
    }

    #[test]
    fn string_literals_are_deduplicated() {
        let src = r#"
            int eq(char *a, char *b) { return a == b; }
            int main() { return eq("same", "same") + eq("same", "diff"); }
        "#;
        assert_eq!(run(src), 1);
    }

    #[test]
    fn array_of_chars_indexing_and_stores() {
        let src = r#"
            char buf[8];
            int main() {
                for (int i = 0; i < 8; i++) buf[i] = 'a' + i;
                return buf[0] + buf[7];  /* 'a' + 'h' */
            }
        "#;
        assert_eq!(run(src), 97 + 104);
    }
}
