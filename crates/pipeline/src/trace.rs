//! Stage-by-stage pipeline diagrams reproducing the paper's Figures 5–8.

use crate::delays::{cond_delay, uncond_delay, BranchScheme};

/// A pipeline occupancy table: one row per instruction, one column per
/// cycle, cells naming the stage (`F`, `D`, `E`) or empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Instruction labels in program order.
    pub rows: Vec<String>,
    /// `cells[row][cycle]` = stage occupied in that cycle, if any.
    pub cells: Vec<Vec<Option<&'static str>>>,
}

impl PipelineTrace {
    /// Total cycles until the last instruction leaves the pipeline.
    pub fn cycles(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|r| {
                r.iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_some())
                    .map(|(i, _)| i + 1)
            })
            .max()
            .unwrap_or(0)
    }

    /// Render as the fixed-width table used by the figures.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let width = self.cells.iter().map(Vec::len).max().unwrap_or(0);
        let label_w = self.rows.iter().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        let _ = write!(out, "{:label_w$} |", "");
        for c in 1..=width {
            let _ = write!(out, "{c:^3}|");
        }
        out.push('\n');
        for (label, row) in self.rows.iter().zip(&self.cells) {
            let _ = write!(out, "{label:label_w$} |");
            for c in 0..width {
                let s = row.get(c).copied().flatten().unwrap_or("");
                let _ = write!(out, "{s:^3}|");
            }
            out.push('\n');
        }
        out
    }

    fn staged(rows: Vec<(&str, usize)>) -> PipelineTrace {
        // Each entry is (label, fetch-start cycle index).
        let stages = ["F", "D", "E"];
        let mut t = PipelineTrace {
            rows: Vec::new(),
            cells: Vec::new(),
        };
        for (label, start) in rows {
            let mut row = vec![None; start + stages.len()];
            for (i, s) in stages.iter().enumerate() {
                row[start + i] = Some(*s);
            }
            t.rows.push(label.to_string());
            t.cells.push(row);
        }
        t
    }
}

/// Figure 5 (and Figure 6's actions): a jump followed by its target, in a
/// 3-stage pipeline, for the given scheme.
pub fn uncond_trace(scheme: BranchScheme) -> PipelineTrace {
    let d = uncond_delay(scheme, 3) as usize;
    match scheme {
        // Target fetch waits for the jump's execute stage.
        BranchScheme::NoDelayed => PipelineTrace::staged(vec![("JUMP", 0), ("TARGET", 1 + d)]),
        // The delay-slot instruction issues back-to-back; the target
        // still waits one extra cycle.
        BranchScheme::Delayed => {
            PipelineTrace::staged(vec![("JUMP", 0), ("NEXT", 1), ("TARGET", 2 + d)])
        }
        // The prefetched target streams in with no bubble at all.
        BranchScheme::BranchRegisters => {
            PipelineTrace::staged(vec![("JUMP", 0), ("TARGET", 1), ("TARGET+1", 2)])
        }
    }
}

/// Figure 7 (and Figure 8's actions): compare + conditional jump +
/// target, 3-stage pipeline.
pub fn cond_trace(scheme: BranchScheme) -> PipelineTrace {
    let d = cond_delay(scheme, 3) as usize;
    match scheme {
        BranchScheme::NoDelayed => {
            PipelineTrace::staged(vec![("COMPARE", 0), ("JUMP", 1), ("TARGET", 2 + d)])
        }
        BranchScheme::Delayed => PipelineTrace::staged(vec![
            ("COMPARE", 0),
            ("JUMP", 1),
            ("NEXT", 2),
            ("TARGET", 3 + d),
        ]),
        // The compare selects between two prefetched instruction
        // registers during its execute stage; the jump's decode picks
        // the winner with no bubble at N=3.
        BranchScheme::BranchRegisters => {
            PipelineTrace::staged(vec![("COMPARE", 0), ("JUMP", 1), ("TARGET", 2 + d)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shapes() {
        // No delayed branch: target enters F two cycles after the jump.
        let t = uncond_trace(BranchScheme::NoDelayed);
        assert_eq!(t.cycles(), 6); // jump F D E + 2 bubbles + target 3 - overlap
        let t = uncond_trace(BranchScheme::Delayed);
        assert_eq!(t.rows[1], "NEXT");
        // Branch registers: perfectly packed, one instruction per cycle.
        let t = uncond_trace(BranchScheme::BranchRegisters);
        assert_eq!(t.cycles(), 5); // 3 instructions, fully overlapped
    }

    #[test]
    fn figure7_branch_registers_have_no_bubble_at_three_stages() {
        let t = cond_trace(BranchScheme::BranchRegisters);
        let t_none = cond_trace(BranchScheme::NoDelayed);
        assert!(t.cycles() < t_none.cycles());
        assert_eq!(t.cycles(), 5);
    }

    #[test]
    fn render_contains_stages() {
        let t = uncond_trace(BranchScheme::BranchRegisters);
        let s = t.render();
        assert!(s.contains('F') && s.contains('D') && s.contains('E'));
        assert!(s.contains("JUMP"));
    }
}
