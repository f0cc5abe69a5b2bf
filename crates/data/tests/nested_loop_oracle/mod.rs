//! The nested-loop oracle the join differentials compare against.

/// `sql` with the equalities of every `ON` clause written `l + 0 = r`:
/// the same joins, but no equality edge the planner can hash, so each
/// runs as a nested loop (`NlJoin`). Clauses after an `ON` (the next
/// `JOIN`, `WHERE`, `GROUP BY`, `ORDER BY`) are left as they are.
pub fn nested_loop_oracle(sql: &str) -> String {
    let mut parts = sql.split(" ON ");
    let mut out = parts.next().unwrap_or_default().to_string();
    for part in parts {
        let end = [" JOIN ", " WHERE ", " GROUP BY ", " ORDER BY "]
            .iter()
            .filter_map(|clause| part.find(clause))
            .min()
            .unwrap_or(part.len());
        let (on, rest) = part.split_at(end);
        out += &format!(" ON {}{rest}", on.replace(" = ", " + 0 = "));
    }
    out
}
