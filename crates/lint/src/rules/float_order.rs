//! `float_order`: no order-sensitive float folds in parallel modules.
//!
//! Float addition is not associative, so a `.sum()` / `.product()` whose
//! operand order depends on scheduling breaks bit-identical results. The
//! rule only fires in result-path files that actually spawn work
//! (`thread::scope`, `.spawn`, rayon's `par_iter` family) outside tests;
//! the pinned kernel modules (`stats`, columnar kernels) fix their fold
//! order by construction and are exempt.

use super::{is_path_seq, FileCtx};
use crate::diag::Diagnostic;

const PAR_IDENTS: &[&str] = &["spawn", "par_iter", "into_par_iter", "par_chunks", "par_bridge"];

pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.class.result_path || ctx.class.pinned_float {
        return;
    }
    let (m, toks) = (ctx.masked(), ctx.tokens());
    let parallel = toks.iter().enumerate().any(|(i, t)| {
        !ctx.scanned.in_test(t.line)
            && (PAR_IDENTS.contains(&t.text(m)) || is_path_seq(ctx, i, "thread", "scope"))
    });
    if !parallel {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.scanned.in_test(t.line) {
            continue;
        }
        let text = t.text(m);
        if (text == "sum" || text == "product")
            && i > 0
            && toks[i - 1].is_punct(m, '.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct(m, '(') || n.is_punct(m, ':'))
        {
            out.push(ctx.diag(
                "float_order",
                t.line,
                format!(
                    "`.{text}()` in a module that spawns parallel work; fold floats in a pinned \
                     order (a sequential loop) instead"
                ),
            ));
        }
    }
}
