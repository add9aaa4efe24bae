//! C backend: render a [`SystemSchedule`] as a
//! self-contained header for arbiter firmware.
//!
//! Many SegBus-class platforms drive their arbiters from a small
//! microcontroller rather than hard-wired FSMs; this backend emits the
//! schedule as `static const` arrays with a tiny accessor API, C89-clean
//! so it compiles anywhere.

use std::fmt::Write as _;

use segbus_model::mapping::Psm;

use crate::schedule::{SaJob, SystemSchedule};

/// Render the schedule as a C header.
pub fn to_c_header(psm: &Psm, sched: &SystemSchedule) -> String {
    let guard = format!(
        "SEGBUS_SCHEDULE_{}_H",
        psm.application()
            .name()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() {
                c.to_ascii_uppercase()
            } else {
                '_'
            })
            .collect::<String>()
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* Auto-generated SegBus arbiter schedules.\n\
         \x20* application: {}\n\
         \x20* platform:    {} (package size {})\n\
         \x20* Generated by segbus-codegen; do not edit. */\n",
        psm.application().name(),
        psm.platform().name(),
        sched.package_size
    );
    let _ = writeln!(out, "#ifndef {guard}\n#define {guard}\n");
    out.push_str(
        "#include <stdint.h>\n\n\
         /* Job kinds. */\n\
         #define SEGBUS_JOB_LOCAL       0u /* fu -> fu on this segment      */\n\
         #define SEGBUS_JOB_SOURCE_FILL 1u /* fu -> border unit             */\n\
         #define SEGBUS_JOB_BU_FORWARD  2u /* border unit -> border unit    */\n\
         #define SEGBUS_JOB_BU_DELIVER  3u /* border unit -> fu             */\n\n\
         typedef struct {\n\
         \x20   uint32_t wave;     /* ordering wave                       */\n\
         \x20   uint32_t kind;     /* SEGBUS_JOB_*                        */\n\
         \x20   uint32_t operand0; /* fu id or upstream segment           */\n\
         \x20   uint32_t operand1; /* peer fu id or neighbour segment     */\n\
         \x20   uint32_t packages; /* grants to issue for this job        */\n\
         } segbus_sa_job_t;\n\n\
         typedef struct {\n\
         \x20   uint32_t wave;\n\
         \x20   uint32_t src_segment;\n\
         \x20   uint32_t dst_segment;\n\
         \x20   uint32_t packages;\n\
         } segbus_ca_job_t;\n\n",
    );
    for (i, jobs) in sched.sa.iter().enumerate() {
        let _ = writeln!(out, "#define SEGBUS_SA{}_JOB_COUNT {}u", i + 1, jobs.len());
        let _ = writeln!(
            out,
            "static const segbus_sa_job_t segbus_sa{}_schedule[{}] = {{",
            i + 1,
            jobs.len().max(1)
        );
        if jobs.is_empty() {
            out.push_str("    {0u, 0u, 0u, 0u, 0u}\n");
        }
        for (wave, job) in jobs {
            let (kind, op0, op1, pkgs) = match job {
                SaJob::Local {
                    src, dst, packages, ..
                } => (0u32, src.0, dst.0, *packages),
                SaJob::SourceFill {
                    src,
                    toward,
                    packages,
                    ..
                } => (1, src.0, toward.0 as u32, *packages),
                SaJob::BuForward {
                    from,
                    toward,
                    packages,
                    ..
                } => (2, from.0 as u32, toward.0 as u32, *packages),
                SaJob::BuDeliver {
                    from,
                    dst,
                    packages,
                    ..
                } => (3, from.0 as u32, dst.0, *packages),
            };
            let _ = writeln!(out, "    {{{wave}u, {kind}u, {op0}u, {op1}u, {pkgs}u}},");
        }
        out.push_str("};\n\n");
    }
    let _ = writeln!(out, "#define SEGBUS_CA_JOB_COUNT {}u", sched.ca.len());
    let _ = writeln!(
        out,
        "static const segbus_ca_job_t segbus_ca_schedule[{}] = {{",
        sched.ca.len().max(1)
    );
    if sched.ca.is_empty() {
        out.push_str("    {0u, 0u, 0u, 0u}\n");
    }
    for j in &sched.ca {
        let _ = writeln!(
            out,
            "    {{{}u, {}u, {}u, {}u}},",
            j.wave, j.from.0, j.to.0, j.packages
        );
    }
    out.push_str("};\n\n");
    let _ = writeln!(out, "#endif /* {guard} */");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SystemSchedule;
    use segbus_apps::mp3;

    #[test]
    fn header_has_guard_and_tables() {
        let psm = mp3::three_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        let h = to_c_header(&psm, &sched);
        assert!(h.starts_with("/* Auto-generated"));
        assert!(h.contains("#ifndef SEGBUS_SCHEDULE_MP3_DECODER_H"));
        assert!(h.contains("#define SEGBUS_SA1_JOB_COUNT"));
        assert!(h.contains("static const segbus_ca_job_t segbus_ca_schedule"));
        assert!(h
            .trim_end()
            .ends_with("#endif /* SEGBUS_SCHEDULE_MP3_DECODER_H */"));
    }

    #[test]
    fn entry_counts_match_schedule() {
        let psm = mp3::three_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        let h = to_c_header(&psm, &sched);
        for (i, jobs) in sched.sa.iter().enumerate() {
            assert!(h.contains(&format!("SEGBUS_SA{}_JOB_COUNT {}u", i + 1, jobs.len())));
        }
        assert!(h.contains(&format!("SEGBUS_CA_JOB_COUNT {}u", sched.ca.len())));
        // One struct line per job.
        let braces = h.matches("u},").count();
        let expected: usize = sched.sa.iter().map(Vec::len).sum::<usize>() + sched.ca.len();
        assert_eq!(braces, expected);
    }

    #[test]
    fn empty_ca_table_gets_placeholder() {
        let psm = mp3::one_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        let h = to_c_header(&psm, &sched);
        assert!(h.contains("#define SEGBUS_CA_JOB_COUNT 0u"));
        assert!(h.contains("{0u, 0u, 0u, 0u}"));
    }

    #[test]
    fn braces_balance() {
        let psm = mp3::two_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        let h = to_c_header(&psm, &sched);
        assert_eq!(h.matches('{').count(), h.matches('}').count());
    }
}
